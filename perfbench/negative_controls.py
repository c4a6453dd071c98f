"""Negative controls for the benchmark's output checks and failure accounting.

    python3 perfbench/negative_controls.py

Runs certify-q2e2 and switch-q4e2 once each and checks that the untouched
outputs pass.  Then it tampers with copies of the outputs (a flipped verdict,
a wrong class size, a changed output byte, ...) and checks each copy with the
benchmark's checker, and it makes runs that hang past their timeout or exit
with the wrong code.  Each control must count as a failed run.  gmtwist is
not modified.  Prints one line per control and exits 1 if any control passed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run as bench


def edit_cert(mutate):
    def tamper(path: Path):
        cert = json.loads(path.read_text())
        mutate(cert)
        path.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")

    return tamper


def edit_byte(suffix: str):
    """Change one byte in the middle of the file output + suffix: a graph6 byte
    stays a graph6 byte, and in JSON the next digit becomes another digit."""

    def tamper(path: Path):
        target = Path(str(path) + suffix)
        data = bytearray(target.read_bytes())
        i = len(data) // 2
        if suffix:
            while not chr(data[i]).isdigit():
                i += 1
            data[i] ^= 1
        else:
            data[i] = 63 + ((data[i] - 63) ^ 1)
        target.write_bytes(bytes(data))

    return tamper


def set_verdict(key, value):
    return lambda cert: cert["verdicts"][key].update(verdict=value)


CONTROLS = {
    "certify-q2e2": {
        "flipped verdict (isomorphisms.phi)": edit_cert(set_verdict("isomorphisms.phi", "fail")),
        "skipped verdict (cospectrality)": edit_cert(set_verdict("cospectrality", "skipped")),
        "missing verdict (polarity_independence)": edit_cert(lambda c: c["verdicts"].pop("polarity_independence")),
        "overall fail": edit_cert(lambda c: c.update(overall="fail")),
        "wrong class size": edit_cert(lambda c: c["transitivity_evidence"].update(switched_class_sizes=[139, 16])),
        "wrong |D|": edit_cert(lambda c: c["counts"].update(D=16)),
        "wrong cell histogram": edit_cert(lambda c: c["counts"]["cells"].update(size_histogram={"4": 15, "8": 11})),
        "wrong intersection array": edit_cert(lambda c: c["intersection_arrays"]["switched"]["c"].__setitem__(1, 8)),
        "wrong design lambda": edit_cert(lambda c: c["designs"]["pseudo_geometric"].update({"lambda": 6})),
    },
    "switch-q4e2": {
        "changed .g6 byte": edit_byte(""),
        "changed .labels.json byte": edit_byte(".labels.json"),
        "changed .partition.json byte": edit_byte(".partition.json"),
    },
}


def main() -> int:
    workdir_parent = bench.ROOT / ".perfbench-work"
    workdir_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workdir_parent))
    results = []  # (control, counted as failed, expected failed, first problem)
    try:
        for name, controls in CONTROLS.items():
            wl = bench.WORKLOADS[name]
            clean = workdir / name
            clean.mkdir()
            out = clean / wl.output
            _, status = bench.spawn([sys.executable, "-m", "gmtwist.cli", *wl.argv(str(out))], wl.timeout_s, clean / "stderr")
            problems = bench.check_output(wl, out) if status == 0 else [f"exit code {status}"]
            results.append((f"{name}: untouched output", bool(problems), False, problems[:1]))
            for label, tamper in controls.items():
                copy = workdir / f"{name}-copy"
                shutil.copytree(clean, copy)
                tamper(copy / wl.output)
                problems = bench.check_output(wl, copy / wl.output)
                results.append((f"{name}: {label}", bool(problems), True, problems[:1]))
                shutil.rmtree(copy)
        hang = bench.run_workload(bench.WORKLOADS["certify-q2e2"], workdir, timeout=1.0)
        results.append(("certify-q2e2 with a 1 s timeout (a hang)", bool(hang.problems), True, hang.problems[:1]))
        bad_q = replace(bench.WORKLOADS["certify-q2e2"], q=6)
        wrong_exit = bench.run_workload(bad_q, workdir, timeout=30.0)
        results.append(("certify with q=6 (exit code 2)", bool(wrong_exit.problems), True, wrong_exit.problems[:1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_parent.rmdir()
        except OSError:
            pass

    ok = True
    for label, failed, expected, problems in results:
        good = failed == expected
        ok &= good
        verdict = "counted as failed" if failed else "passed"
        print(f"{'ok ' if good else 'BAD'} {label}: {verdict} {problems[0][:160] if problems else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
