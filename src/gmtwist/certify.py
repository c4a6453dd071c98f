"""End-to-end certification pipeline and the machine-readable certificate.

A certificate records, for one parameter pair (q, e): the vertex census, the
switching-hypothesis validation, the switched-adjacency rule, the intersection
arrays against their closed form, cospectrality, both designs, the
block-graph identity, the two isomorphism maps, non-vertex-transitivity
evidence, and polarity independence.  Cospectrality has one proof at every
size, the exact Godsil-McKay similarity A' = QAQ (`graph.gm_witness`).  Every
verdict is pass / fail / skipped; skips carry a reason.  Failures are
recorded, never raised: negative evidence is part of the product.
"""

from __future__ import annotations

import json
import time
from importlib import resources

from . import __version__
from .construct import (
    Parameters,
    block_graph,
    block_intersection_sizes,
    design_lambda,
    jt_design,
    canonical_grassmann,
    pg_design,
    phi_map,
    psi_map,
    split_A_B,
    standard_polarity,
    switching_partition,
    twisted_grassmann,
    verify_2_design,
    verify_ta_rule,
)
from .errors import ParameterError
from .graph import (
    apply_gm_switch,
    check_isomorphism,
    gm_witness,
    intersection_array,
    validate_gm,
    vertex_invariant_distribution,
)
from .subspace import gaussian_binomial, make_polarity_from_gram

# twisted graph / psi / invariants / polarity-independence are quadratic-or-worse
# stages that stay feasible up to this many vertices
HEAVY_STAGE_LIMIT = 2000


def _pairwise_gram(params: Parameters):
    """Alternative alternating Gram matrix: consecutive-coordinate blocks."""
    ctx, e = params.ctx, params.e
    n = 2 * e
    neg1 = ctx.neg(1)
    gram = [[0] * n for _ in range(n)]
    for i in range(e):
        gram[2 * i][2 * i + 1] = 1
        gram[2 * i + 1][2 * i] = neg1
    return make_polarity_from_gram(ctx, e, tuple(tuple(r) for r in gram))


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _skip(reason: str) -> dict:
    return {"verdict": "skipped", "reason": reason}


class _Timer:
    def __init__(self):
        self.stages: dict[str, float] = {}
        self._t0 = time.monotonic()

    def mark(self, name: str):
        now = time.monotonic()
        self.stages[name] = round(now - self._t0, 3)
        self._t0 = now


def run_certification(
    q: int,
    e: int,
    *,
    invariant: str = "nbhd-charpoly",
) -> dict:
    """Run the full pipeline for (q, e) and return the certificate dict."""
    params = Parameters(q, e)
    if e < 2:
        raise ParameterError(
            "certification requires e >= 2 (the B class degenerates at e=1)"
        )
    timer = _Timer()
    cert: dict = {
        "tool": {"name": "gmtwist", "version": __version__},
        "params": {"q": q, "e": e, "n": params.n, "vertices": params.vertex_count},
    }

    # --- census ---------------------------------------------------------
    A, B, D = split_A_B(params)
    sigma = standard_polarity(params)
    info = switching_partition(params, sigma)
    hist = info.cell_size_histogram()
    total = params.vertex_count
    census_ok = (
        len(A) + len(D) == total
        and set(hist) <= {q**e, 2 * q**e}
        and sum(s * c for s, c in hist.items()) + len(D) == total
        and len(B) == gaussian_binomial(2 * e, e - 1, q)
        and all(len(idx) == q**e for idx in info.cells_by_U.values())
    )
    cert["counts"] = {
        "A": len(A),
        "B": len(B),
        "D": len(D),
        "cells": {
            "total": len(info.partition.cells),
            "size_histogram": {str(k): v for k, v in sorted(hist.items())},
        },
        "verdict": _verdict(census_ok),
    }
    timer.mark("census")

    # --- GM hypothesis ----------------------------------------------------
    G = canonical_grassmann(params)
    report = validate_gm(G, info.partition)
    cert["gm_validation"] = {
        "verdict": _verdict(report.passed),
        "equitable": report.equitable.equitable,
        "d_tallies": report.tallies,
        "half_exists": report.tallies["half"] > 0,
        "violations": len(report.violations),
    }
    timer.mark("gm_validation")

    # --- switch + switched-adjacency rule ------------------------------------------------
    if report.passed:
        switched = apply_gm_switch(G, info.partition)
        ta = verify_ta_rule(switched, params, sigma)
        cert["switched_adjacency_rule"] = {
            "verdict": _verdict(ta.ok),
            "pairs_checked": ta.pairs_checked,
            "violations": len(ta.violations),
        }
    else:
        switched = None
        cert["switched_adjacency_rule"] = _skip("GM hypothesis failed; no switched graph")
    timer.mark("switch_and_ta")

    # --- intersection arrays (the verdict waits for the twisted graph's) ------
    ia = intersection_array(G)
    arrays: dict = {"original": ia.array.to_json() if ia.is_drg else None}
    if switched is not None:
        iat = intersection_array(switched)
        arrays["switched"] = iat.array.to_json() if iat.is_drg else None
        arrays["equal"] = ia.is_drg and iat.is_drg and ia.array == iat.array
    cert["intersection_arrays"] = arrays
    timer.mark("intersection_arrays")

    # --- cospectrality: A' = QAQ with Q^2 = I ------------------------------
    if switched is None:
        cert["cospectrality"] = _skip("no switched graph")
    else:
        violation = gm_witness(G, switched, info.partition)
        cert["cospectrality"] = {
            "method": "gm-witness",
            "verdict": _verdict(violation is None),
            "violation": violation and list(violation),
        }
    timer.mark("cospectrality")

    # --- designs ----------------------------------------------------------
    pg = pg_design(params)
    jt = jt_design(params, sigma)
    pg_check = verify_2_design(pg)
    jt_check = verify_2_design(jt)
    lam = design_lambda(params)
    v_expect = (q ** (2 * e + 1) - 1) // (q - 1)
    k_expect = (q ** (e + 1) - 1) // (q - 1)
    allowed = sorted((q**i - 1) // (q - 1) for i in range(1, e + 1))
    sizes_pg = sorted(block_intersection_sizes(pg))
    sizes_jt = sorted(block_intersection_sizes(jt))
    sizes_ok = set(sizes_pg) <= set(allowed) and set(sizes_jt) <= set(allowed)

    def design_json(check):
        ok = check.ok and (check.v, check.k, check.lam) == (v_expect, k_expect, lam)
        return {
            "verdict": _verdict(ok),
            "v": check.v,
            "k": check.k,
            "lambda": check.lam,
        }

    cert["designs"] = {
        "expected": {"v": v_expect, "k": k_expect, "lambda": lam},
        "geometric": design_json(pg_check),
        "pseudo_geometric": design_json(jt_check),
        "intersection_sizes": {
            "verdict": _verdict(sizes_ok),
            "allowed": allowed,
            "observed_geometric": sizes_pg,
            "observed_pseudo_geometric": sizes_jt,
        },
    }
    timer.mark("designs")

    # --- block graphs and isomorphisms --------------------------------------
    s = (q**e - 1) // (q - 1)
    bg_pg = block_graph(pg, s)
    identity_ok = bg_pg.adj == G.adj
    delta = block_graph(jt, s)
    phi = phi_map(params, sigma)
    iso: dict = {"block_graph_identity": _verdict(identity_ok)}
    if switched is not None and phi.injective:
        iso["phi"] = _verdict(check_isomorphism(switched, delta, phi.mapping).ok)
    elif switched is None:
        iso["phi"] = _skip("no switched graph")
    else:
        iso["phi"] = _verdict(False)

    if G.n <= HEAVY_STAGE_LIMIT:
        twisted = twisted_grassmann(params)
        psi = psi_map(params, sigma)
        iso["psi"] = (
            _verdict(psi.injective and check_isomorphism(twisted, delta, psi.mapping).ok)
        )
        ia_tw = intersection_array(twisted)
        arrays["twisted"] = ia_tw.array.to_json() if ia_tw.is_drg else None
    else:
        iso["psi"] = _skip("budget")
    cert["isomorphisms"] = iso
    qint = [gaussian_binomial(m, 1, q) for m in range(e + 2)]  # [m] = (q^m - 1)/(q - 1)
    closed_form = {  # the intersection array of J_q(2e+1, e+1)
        "diameter": e,
        "b": [q ** (2 * j + 1) * qint[e + 1 - j] * qint[e - j] for j in range(e)],
        "c": [qint[j] ** 2 for j in range(1, e + 1)],
    }
    graphs = [k for k in ("original", "switched", "twisted") if k in arrays]
    arrays["verdict"] = _verdict(all(arrays[k] == closed_form for k in graphs))
    timer.mark("isomorphisms")

    # --- non-vertex-transitivity evidence --------------------------------------
    heavy_ok = switched is not None and G.n <= HEAVY_STAGE_LIMIT
    if heavy_ok:
        dist_g = vertex_invariant_distribution(G, invariant)
        dist_s = vertex_invariant_distribution(switched, invariant)
        cert["transitivity_evidence"] = {
            "invariant": dist_g.invariant,
            "original_distinct": dist_g.distinct,
            "switched_distinct": dist_s.distinct,
            "switched_class_sizes": sorted(dist_s.counts.values(), reverse=True),
            "verdict": _verdict(dist_g.distinct == 1 and dist_s.distinct >= 2),
        }
    else:
        cert["transitivity_evidence"] = _skip(
            "budget" if switched is not None else "no switched graph"
        )
    timer.mark("transitivity_evidence")

    # --- polarity independence --------------------------------------------
    # the switched graph's array and invariant come from above
    if heavy_ok:
        sigma2 = _pairwise_gram(params)
        info2 = switching_partition(params, sigma2)
        rep2 = validate_gm(G, info2.partition)
        if rep2.passed:
            switched2 = apply_gm_switch(G, info2.partition)
            checks = {
                "grams_distinct": sigma2.gram != sigma.gram,
                "witness": gm_witness(G, switched2, info2.partition) is None,
            }
            ia2 = intersection_array(switched2)
            checks["arrays_equal"] = ia2.is_drg and iat.is_drg and ia2.array == iat.array
            d2 = vertex_invariant_distribution(switched2, invariant)
            checks["invariant_distributions_equal"] = dist_s.counts == d2.counts
            cert["polarity_independence"] = {
                "verdict": _verdict(all(checks.values())),
                **{k: bool(v) for k, v in checks.items()},
            }
        else:
            cert["polarity_independence"] = {"verdict": "fail", "reason": "second partition invalid"}
    else:
        cert["polarity_independence"] = _skip(
            "budget" if switched is not None else "no switched graph"
        )
    timer.mark("polarity_independence")

    cert["timings_sec"] = timer.stages
    cert["verdicts"] = collect_verdicts(cert)
    cert["overall"] = _verdict(
        all(v["verdict"] != "fail" for v in cert["verdicts"].values())
    )
    return cert


def collect_verdicts(cert: dict) -> dict:
    """Flat map of every verdict-bearing stage in the certificate."""
    out = {}

    def visit(prefix: str, node):
        if isinstance(node, dict):
            if "verdict" in node:
                entry = {"verdict": node["verdict"]}
                if node["verdict"] == "skipped":
                    entry["reason"] = node.get("reason", "")
                out[prefix] = entry
            for k, v in node.items():
                if k in ("verdicts", "timings_sec"):
                    continue
                if isinstance(v, dict):
                    visit(f"{prefix}.{k}" if prefix else k, v)
                elif k in ("phi", "psi", "block_graph_identity") and isinstance(v, str):
                    out[f"{prefix}.{k}" if prefix else k] = {"verdict": v}

    for key, val in cert.items():
        if key in ("tool", "params", "timings_sec", "verdicts", "overall"):
            continue
        visit(key, val)
    return out


def certificate_schema() -> dict:
    text = resources.files("gmtwist.schemas").joinpath("certificate.schema.json").read_text()
    return json.loads(text)


def validate_certificate(cert: dict) -> None:
    """Raises jsonschema.ValidationError if the certificate violates the schema."""
    import jsonschema  # imported here: the CLI never validates, and the import costs ~4 MB

    jsonschema.validate(cert, certificate_schema())


def certificate_to_json(cert: dict) -> str:
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"
