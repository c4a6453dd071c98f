import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gmtwist
import gmtwist.certify as certify_mod
import gmtwist.construct as construct_mod
import gmtwist.graph as graph_mod
from gmtwist.certify import (
    certificate_to_json,
    collect_verdicts,
    run_certification,
    validate_certificate,
)
from gmtwist.cli import main
from gmtwist.construct import (
    Design,
    Parameters,
    PartitionInfo,
    VertexMap,
    _in_hyperplane,
    canonical_grassmann,
)
from gmtwist.graph import Graph, SwitchingPartition
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
    assert cert22["cospectrality"] == {"method": "gm-witness", "verdict": "pass", "violation": None}
    arrays = cert22["intersection_arrays"]
    assert arrays["verdict"] == "pass" and cert22["verdicts"]["intersection_arrays"] == {"verdict": "pass"}
    for graph in ("original", "switched", "twisted"):
        assert arrays[graph] == {"diameter": 2, "b": [42, 24], "c": [1, 9]}
    assert cert22["switched_adjacency_rule"]["pairs_checked"] == 2100
    # the invariant is the one asked for (the default), never swapped for another
    assert cert22["transitivity_evidence"]["invariant"] == "nbhd-charpoly"
    assert "fallback_used" not in cert22["transitivity_evidence"]
    assert cert22["transitivity_evidence"]["original_distinct"] == 1
    assert cert22["transitivity_evidence"]["switched_distinct"] >= 2
    # two local spectra, on the |A| = 140 and |D| = 15 vertices
    assert cert22["transitivity_evidence"]["switched_class_sizes"] == [140, 15]
    assert cert22["polarity_independence"] == {
        "verdict": "pass",
        "grams_distinct": True,
        "witness": True,
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

    for name in ("validate_gm", "gm_witness", "intersection_array", "vertex_invariant_distribution"):
        monkeypatch.setattr(certify_mod, name, counted(name, getattr(certify_mod, name)))
    # gm_switch validates through the graph module's own binding
    monkeypatch.setattr(graph_mod, "validate_gm", certify_mod.validate_gm)
    assert run_certification(2, 2)["overall"] == "pass"
    assert set(calls.values()) == {1}  # no call repeats an earlier one
    assert Counter(key[0] for key in calls) == {
        "validate_gm": 2,  # one per switching partition; switching does not revalidate
        "gm_witness": 2,  # G against each of the two switched graphs
        "intersection_array": 4,  # G, both switched graphs and the twisted graph
        "vertex_invariant_distribution": 3,
    }


def test_certificate_schema(cert22):
    validate_certificate(cert22)  # raises on violation
    # serialized form is stable JSON and parses back to the same document
    text = certificate_to_json(cert22)
    assert json.loads(text) == json.loads(certificate_to_json(cert22))


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


def _cli_certificate(path, *flags):
    """The certificate that `certify --q 2 --e 2 [flags]` writes to path,
    without its timings."""
    assert main(["certify", "--q", "2", "--e", "2", *flags, "--out", str(path)]) == 0
    cert = json.loads(path.read_text())
    validate_certificate(cert)
    del cert["timings_sec"]
    return cert


@pytest.fixture(scope="module")
def cli_cert22(tmp_path_factory):
    return _cli_certificate(tmp_path_factory.mktemp("cli") / "cert.json")


def test_cli_certify(cli_cert22):
    assert cli_cert22["overall"] == "pass"
    assert cli_cert22["cospectrality"]["method"] == "gm-witness"


def test_skip_charpoly_changes_nothing(cli_cert22, tmp_path):
    # the flag is still accepted; no whole-graph char poly is computed either way
    assert _cli_certificate(tmp_path / "c.json", "--skip-charpoly") == cli_cert22


def test_cli_certify_stdout(capsys):
    rc = main(["certify", "--q", "2", "--e", "2", "--skip-charpoly"])
    assert rc == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["overall"] == "pass"


def test_cli_import_does_not_load_jsonschema():
    # only validate_certificate needs jsonschema; the CLI never validates
    src = str(Path(gmtwist.__file__).resolve().parents[1])
    code = "import sys, gmtwist.cli; print('jsonschema' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_parameter_errors(tmp_path):
    out = tmp_path / "x.g6"
    assert main(["build", "grassmann", "--q", "6", "--e", "2", "--out", str(out)]) == 2
    assert main(["build", "twisted", "--q", "2", "--e", "1", "--out", str(out)]) == 2
    assert main(["switch", "--q", "2", "--e", "1", "--out", str(out)]) == 2
    assert main(["certify", "--q", "2", "--e", "0"]) == 2


def test_cli_budget_exhaustion(tmp_path):
    # q=4, e=3 would enumerate billions of subspaces; admission refuses it
    out = tmp_path / "big.g6"
    assert main(["build", "grassmann", "--q", "4", "--e", "3", "--out", str(out)]) == 3


@pytest.mark.parametrize(
    "argv",
    [["certify"], ["switch", "--out", "s.g6"], ["build", "grassmann", "--out", "g.g6"]],
    ids=["certify", "switch", "build"],
)
def test_cli_refuses_q7_e2_before_enumerating(argv, tmp_path, monkeypatch, capsys):
    # (7,2) has 140050 vertices, over MAX_VERTICES: exit 3 with nothing built
    def enumerate_subspaces(*args):
        raise AssertionError("enumerated subspaces of an inadmissible size")

    monkeypatch.setattr(construct_mod, "enumerate_subspaces", enumerate_subspaces)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--q", "7", "--e", "2"]) == 3
    assert "140050 vertices" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["abc", "-3", "1e3", "100"])
def test_cli_rejects_bad_budget_flag(value, capsys):
    # cospectrality has one proof at every size: there is no --budget to set
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--q", "2", "--e", "2", "--budget", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_cli_budget_env_var(cli_cert22, tmp_path, monkeypatch):
    # GMTWIST_BUDGET is not read, so not even a malformed value changes anything
    monkeypatch.setenv("GMTWIST_BUDGET", "abc")
    assert _cli_certificate(tmp_path / "c.json") == cli_cert22


# sha256 of the (2,2) build outputs, recorded at the commit before the
# construction layer moved to projective-point masks and popcount pair panels
# (graph6, labels and designs) and at the commit before graphio took over the
# edge-list and JSON writers (edges, json)
PINNED_BUILDS_22 = {
    ("grassmann", "graph6"): "1cbb11811fec2318160e6fdb5a6eb68ef792edcd58bdfd71726b7f0e153a3a57",
    ("grassmann", "edges"): "f0d893a8a07da5df3b06c262c919c0fd322bb5e800f8a2f526edf6bd929f29e7",
    ("grassmann", "json"): "90a3c45fa916e00db65895168dbd6ed7c4ce567eb83c0a531ccf2ba440560511",
    ("grassmann", "labels"): "0115fbccbd1224b0c6c165c862ab5f857d9b263c534683342b8c40e2c320f13b",
    ("twisted", "graph6"): "06436300e8e1e4309ca870920e45cf38eb14e231ca0544db9ee351f743d29d23",
    ("twisted", "edges"): "7a84a49b25fdd15714b4de4d51e617f54e28680774e118a0c3340f73360a3b99",
    ("twisted", "json"): "8ba85321587a233e6ef4842b28420dcda823b22df102fd45135e9dbe02526cac",
    ("twisted", "labels"): "0860fbcbaa75c846825b7f1b76392c3ae6b4514ae8756f56382e7ea444363a00",
    ("block-graph", "graph6"): "74d687944ca01bff0558efafc1ba0b5454858e2edc8ea5cfa391b3e76418b44a",
    ("block-graph", "edges"): "611134e8209e672dbc34da83f94dbc251cbc2a5ba0cc68780f17f7a1c2e291d1",
    ("block-graph", "json"): "ef27487023090da69975e029121603b79b17296ad5d643f5b0cd5891a22f0470",
    ("block-graph", "labels"): "adf42f1a85ad6dcd196d79a5234dbcbaf3081f2a4669335086a55fe8595c8868",
    ("pg-design", "json"): "ac81c7ce321ccd870a5ec81c8efd1c4275bd33b229e005313d617272193781d5",
    ("jt-design", "json"): "4449c84f141cac35a74889043be4a97966fe27e8f1a54039c6dd738aa62d5b67",
}


@pytest.mark.parametrize("kind", ["grassmann", "twisted", "block-graph", "pg-design", "jt-design"])
def test_cli_build_outputs_pinned(kind, tmp_path):
    formats = ("json",) if kind.endswith("design") else ("graph6", "edges", "json")
    for fmt in formats:
        out = tmp_path / fmt
        assert main(["build", kind, "--q", "2", "--e", "2", "--out", str(out), "--format", fmt]) == 0
        files = {fmt: out}
        if not kind.endswith("design"):
            files["labels"] = tmp_path / f"{fmt}.labels.json"
        for name, path in files.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_BUILDS_22[(kind, name)]


# Negative controls: one tampered input must turn its verdict from pass to fail.


def _tampered_certificate(monkeypatch, name, tamper):
    original = getattr(certify_mod, name)
    monkeypatch.setattr(certify_mod, name, lambda *args: tamper(original(*args)))
    return run_certification(2, 2, invariant="clique-counts")


def _move_point(D):
    """D with one point of its first block replaced by a point outside it."""
    block = D.blocks[0]
    outside = next(p for p in range(D.v) if p not in block)
    moved = tuple(sorted(block[1:] + (outside,)))
    return Design(D.params, D.points, (moved,) + D.blocks[1:], D.provenance)


def _swap_first_two(m):
    mapping = list(m.mapping)
    mapping[0], mapping[1] = mapping[1], mapping[0]
    return VertexMap(tuple(mapping), m.injective)


def test_flipped_grassmann_bit_fails_block_graph_identity(monkeypatch):
    def flip(G):
        u, v = 0, 1 if not G.has_edge(0, 1) else 2
        rows = list(G.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph(G.labels, rows)

    cert = _tampered_certificate(monkeypatch, "canonical_grassmann", flip)
    assert cert["isomorphisms"]["block_graph_identity"] == "fail"
    assert cert["intersection_arrays"]["original"] is None
    assert cert["intersection_arrays"]["verdict"] == "fail"
    assert cert["overall"] == "fail"


def test_moved_point_fails_geometric_design_and_identity(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "pg_design", _move_point)
    assert cert["designs"]["geometric"]["verdict"] == "fail"
    assert cert["isomorphisms"]["block_graph_identity"] == "fail"
    assert cert["overall"] == "fail"


def test_swapped_phi_entries_fail_phi(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "phi_map", _swap_first_two)
    assert cert["isomorphisms"]["phi"] == "fail"
    assert cert["overall"] == "fail"
    # the untampered run passes the same verdicts
    monkeypatch.undo()
    clean = run_certification(2, 2, invariant="clique-counts")
    assert clean["isomorphisms"] == {"block_graph_identity": "pass", "phi": "pass", "psi": "pass"}
    assert clean["designs"]["geometric"]["verdict"] == "pass"
    assert clean["overall"] == "pass"  # every verdict the other controls tamper with


def test_moved_cell_vertex_fails_gm_validation(monkeypatch):
    def move(info):
        P = info.partition
        (v, *rest), *cells = P.cells
        moved = SwitchingPartition((tuple(rest), *cells), tuple(sorted(P.exempt + (v,))))
        return PartitionInfo(moved, info.cells_by_U, info.pairs, info.d_indices)

    cert = _tampered_certificate(monkeypatch, "switching_partition", move)
    assert cert["gm_validation"]["verdict"] == "fail"
    assert cert["overall"] == "fail"


def _flip_a_d_edge(G):
    """G with the pair of its first A-vertex and its first D-vertex flipped."""
    a = next(i for i, W in enumerate(G.labels) if not _in_hyperplane(W))
    d = next(i for i, W in enumerate(G.labels) if _in_hyperplane(W))
    rows = list(G.adj)
    rows[a] ^= 1 << d
    rows[d] ^= 1 << a
    return Graph(G.labels, rows)


def test_flipped_a_d_edge_fails_switched_adjacency_rule(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "apply_gm_switch", _flip_a_d_edge)
    rule = cert["switched_adjacency_rule"]
    assert (rule["verdict"], rule["violations"]) == ("fail", 1)
    assert cert["overall"] == "fail"


def test_flipped_a_d_edge_fails_cospectrality_and_intersection_arrays(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "apply_gm_switch", _flip_a_d_edge)
    cospectrality = cert["cospectrality"]
    assert (cospectrality["verdict"], cospectrality["method"]) == ("fail", "gm-witness")
    assert cospectrality["violation"] is not None
    arrays = cert["intersection_arrays"]
    assert arrays["switched"] is None and arrays["original"] == arrays["twisted"] is not None
    assert arrays["verdict"] == "fail" and cert["verdicts"]["intersection_arrays"] == {"verdict": "fail"}
    assert cert["overall"] == "fail"


def test_unswitched_graph_fails_cospectrality(monkeypatch):
    # G is cospectral with itself, so only a check of the switch itself can
    # fail here: G passed validate_gm, and A = QAQ does not hold for its Q
    unswitched = canonical_grassmann(Parameters(2, 2))
    cert = _tampered_certificate(monkeypatch, "apply_gm_switch", lambda switched: unswitched)
    assert cert["gm_validation"]["verdict"] == "pass"
    assert cert["cospectrality"]["verdict"] == "fail"
    assert cert["intersection_arrays"]["verdict"] == "pass"
    assert cert["overall"] == "fail"


def test_moved_point_fails_pseudo_geometric_design(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "jt_design", _move_point)
    assert cert["designs"]["pseudo_geometric"]["verdict"] == "fail"
    assert cert["overall"] == "fail"


def test_swapped_psi_entries_fail_psi(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "psi_map", _swap_first_two)
    assert cert["isomorphisms"]["psi"] == "fail"
    assert cert["overall"] == "fail"


def test_dropped_b_subspace_fails_counts(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "split_A_B", lambda abd: (abd[0], abd[1][1:], abd[2]))
    assert cert["counts"]["B"] == 14 and cert["counts"]["verdict"] == "fail"
    assert cert["overall"] == "fail"


def test_moved_point_fails_intersection_sizes(monkeypatch):
    cert = _tampered_certificate(monkeypatch, "pg_design", _move_point)
    sizes = cert["designs"]["intersection_sizes"]
    assert sizes["verdict"] == "fail"
    assert not set(sizes["observed_geometric"]) <= set(sizes["allowed"])
    assert cert["overall"] == "fail"


def test_unswitched_graph_fails_transitivity_evidence(monkeypatch):
    unswitched = canonical_grassmann(Parameters(2, 2))
    cert = _tampered_certificate(monkeypatch, "apply_gm_switch", lambda switched: unswitched)
    evidence = cert["transitivity_evidence"]
    assert (evidence["verdict"], evidence["switched_distinct"]) == ("fail", 1)
    assert cert["overall"] == "fail"


def test_first_switch_twice_fails_polarity_independence_witness(monkeypatch):
    # the second switching returns the first switched graph: its array and
    # invariants agree, so only the witness of the second partition can fail
    first = []

    def repeat_first(switched):
        first.append(switched)
        return first[0]

    cert = _tampered_certificate(monkeypatch, "apply_gm_switch", repeat_first)
    assert len(first) == 2 and first[0] != first[1]
    assert cert["polarity_independence"] == {
        "verdict": "fail",
        "grams_distinct": True,
        "witness": False,
        "arrays_equal": True,
        "invariant_distributions_equal": True,
    }
    assert cert["cospectrality"]["verdict"] == "pass"
    assert cert["overall"] == "fail"


def test_same_polarity_twice_fails_polarity_independence(monkeypatch):
    # the second switching uses the first polarity again: every comparison
    # agrees trivially, so only the distinct Gram matrices can fail it
    monkeypatch.setattr(certify_mod, "_pairwise_gram", certify_mod.standard_polarity)
    cert = run_certification(2, 2, invariant="clique-counts")
    independence = cert["polarity_independence"]
    assert independence["grams_distinct"] is False and independence["arrays_equal"] is True
    assert independence["verdict"] == "fail"
    assert cert["overall"] == "fail"
