import json
from collections import Counter

import pytest

import gmtwist.certify as certify_mod
import gmtwist.graph as graph_mod
from gmtwist.certify import (
    certificate_to_json,
    collect_verdicts,
    run_certification,
    validate_certificate,
)
from gmtwist.cli import main
from gmtwist.graphio import from_graph6


@pytest.fixture(scope="module")
def cert22():
    return run_certification(2, 2)


def test_certification_2_2_passes(cert22):
    assert cert22["overall"] == "pass"
    assert cert22["params"] == {"q": 2, "e": 2, "n": 5, "vertices": 155}
    assert cert22["counts"]["A"] == 140 and cert22["counts"]["B"] == 15
    assert cert22["counts"]["cells"]["size_histogram"] == {"4": 15, "8": 10}
    assert cert22["gm_validation"]["d_tallies"] == {"zero": 270, "half": 60, "full": 45}
    assert cert22["cospectrality"]["method"] == "charpoly"
    assert cert22["switched_adjacency_rule"]["pairs_checked"] == 2100
    assert cert22["transitivity_evidence"]["original_distinct"] == 1
    assert cert22["transitivity_evidence"]["switched_distinct"] >= 2
    # two local spectra, on the |A| = 140 and |D| = 15 vertices
    assert cert22["transitivity_evidence"]["switched_class_sizes"] == [140, 15]
    assert cert22["polarity_independence"] == {
        "verdict": "pass",
        "grams_distinct": True,
        "charpoly_equal": True,
        "arrays_equal": True,
        "invariant_distributions_equal": True,
    }
    verdicts = collect_verdicts(cert22)
    assert verdicts and all(v["verdict"] in ("pass", "skipped") for v in verdicts.values())


def test_certification_computes_each_artifact_once(monkeypatch):
    calls = Counter()
    seen = []  # keeps the arguments alive so that their ids stay unique

    def counted(name, fn):
        def wrapper(*args):
            seen.append(args)
            calls[(name, *map(id, args))] += 1
            return fn(*args)

        return wrapper

    for name in ("validate_gm", "char_poly", "intersection_array", "vertex_invariant_distribution"):
        monkeypatch.setattr(certify_mod, name, counted(name, getattr(certify_mod, name)))
    # gm_switch validates through the graph module's own binding
    monkeypatch.setattr(graph_mod, "validate_gm", certify_mod.validate_gm)
    assert run_certification(2, 2)["overall"] == "pass"
    assert set(calls.values()) == {1}  # no call repeats an earlier one
    assert Counter(key[0] for key in calls) == {
        "validate_gm": 2,  # one per switching partition; switching does not revalidate
        "char_poly": 3,  # G, the switched graph and the second switched graph
        "intersection_array": 4,  # the same three plus the twisted graph
        "vertex_invariant_distribution": 3,
    }


def test_certificate_schema(cert22):
    validate_certificate(cert22)  # raises on violation
    # serialized form is stable JSON and parses back to the same document
    text = certificate_to_json(cert22)
    assert json.loads(text) == json.loads(certificate_to_json(cert22))


def test_skip_charpoly_uses_arrays():
    cert = run_certification(2, 2, skip_charpoly=True)
    assert cert["overall"] == "pass"
    assert cert["cospectrality"]["method"] == "intersection-array"
    validate_certificate(cert)


def test_budget_forces_array_method():
    cert = run_certification(2, 2, spectral_budget=100)
    assert cert["cospectrality"]["method"] == "intersection-array"
    assert "charpoly_skipped_reason" in cert["cospectrality"]
    assert cert["overall"] == "pass"


def test_clique_count_invariant():
    cert = run_certification(2, 2, invariant="clique-counts")
    assert cert["transitivity_evidence"]["invariant"] == "clique-counts"
    assert cert["transitivity_evidence"]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# CLI


def test_cli_build_grassmann_deterministic(tmp_path):
    out1 = tmp_path / "a.g6"
    out2 = tmp_path / "b.g6"
    for out in (out1, out2):
        rc = main(["build", "grassmann", "--q", "2", "--e", "2", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    G = from_graph6(out1.read_bytes())
    assert G.n == 155 and all(G.degree(v) == 42 for v in range(155))
    labels = json.loads((tmp_path / "a.g6.labels.json").read_text())
    assert len(labels) == 155


def test_cli_build_twisted_and_block_graph_agree(tmp_path):
    t = tmp_path / "t.g6"
    bg = tmp_path / "bg.g6"
    assert main(["build", "twisted", "--q", "2", "--e", "2", "--out", str(t)]) == 0
    assert main(["build", "block-graph", "--q", "2", "--e", "2", "--out", str(bg)]) == 0
    T = from_graph6(t.read_bytes())
    assert T.n == 155 and all(T.degree(v) == 42 for v in range(155))


def test_cli_build_designs(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["build", "jt-design", "--q", "2", "--e", "2", "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["blocks"]) == 155 and all(len(b) == 7 for b in doc["blocks"])
    # designs only serialize as JSON
    rc = main(["build", "pg-design", "--q", "2", "--e", "2", "--out", str(out)])
    assert rc == 2


def test_cli_build_edges_and_json_formats(tmp_path):
    e_out = tmp_path / "g.edges"
    j_out = tmp_path / "g.json"
    assert main(["build", "grassmann", "--q", "2", "--e", "2", "--out", str(e_out), "--format", "edges"]) == 0
    assert main(["build", "grassmann", "--q", "2", "--e", "2", "--out", str(j_out), "--format", "json"]) == 0
    header = e_out.read_text().splitlines()[0]
    assert header == "155 3255"
    doc = json.loads(j_out.read_text())
    assert doc["n"] == 155 and len(doc["edges"]) == 3255


def test_cli_switch(tmp_path):
    out = tmp_path / "s.g6"
    rc = main(["switch", "--q", "2", "--e", "2", "--out", str(out)])
    assert rc == 0
    S = from_graph6(out.read_bytes())
    assert S.n == 155 and all(S.degree(v) == 42 for v in range(155))
    part = json.loads((tmp_path / "s.g6.partition.json").read_text())
    assert len(part["cells"]) == 25 and len(part["exempt"]) == 15
    assert sorted(len(c) for c in part["cells"]).count(4) == 15


def test_cli_certify(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["certify", "--q", "2", "--e", "2", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    validate_certificate(cert)
    assert cert["overall"] == "pass"


def test_cli_certify_stdout(capsys):
    rc = main(["certify", "--q", "2", "--e", "2", "--skip-charpoly"])
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["overall"] == "pass"


def test_cli_parameter_errors(tmp_path):
    out = tmp_path / "x.g6"
    assert main(["build", "grassmann", "--q", "6", "--e", "2", "--out", str(out)]) == 2
    assert main(["build", "twisted", "--q", "2", "--e", "1", "--out", str(out)]) == 2
    assert main(["switch", "--q", "2", "--e", "1", "--out", str(out)]) == 2
    assert main(["certify", "--q", "2", "--e", "0"]) == 2


def test_cli_budget_exhaustion(tmp_path):
    # q=4, e=3 would enumerate billions of subspaces; the budget stops it
    out = tmp_path / "big.g6"
    assert main(["build", "grassmann", "--q", "4", "--e", "3", "--out", str(out)]) == 3


def test_cli_budget_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GMTWIST_BUDGET", "100")
    out = tmp_path / "c.json"
    rc = main(["certify", "--q", "2", "--e", "2", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["cospectrality"]["method"] == "intersection-array"
