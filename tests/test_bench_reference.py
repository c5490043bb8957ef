"""Byte identity of every benchmark output with `perfbench/reference.json`.

The four perfbench pools (545 instances) each get the two ops of their
workload through `cli.main`, as `perfbench/run.py` runs them: `solve`, then
`exact`, or `check` of that solution on `fvc-scale`.  The SHA-256 prefix of
each output file must equal the stored digest.  A change of output bytes
then fails here, not only in a benchmark run.  `perfbench/corpus.py` is
loaded by path, so `perfbench` need not be importable; it needs networkx.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from flexconn import cli

pytest.importorskip("networkx")

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _load_corpus():
    if "perfbench_corpus" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # its dataclass looks itself up there
        spec.loader.exec_module(module)
    return sys.modules["perfbench_corpus"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_outputs_match_reference_digests(workload, tmp_path):
    ref = REFERENCE[workload]
    pool = _load_corpus().make_pool(workload, len(ref["instances"]))
    assert [digest(inst.text().encode()) for inst in pool] == ref["instances"]
    second = "check" if workload == "fvc-scale" else "exact"
    got = []
    for i, inst in enumerate(pool):
        path = tmp_path / f"i{i}.flex"
        path.write_text(inst.text())
        solve, out = tmp_path / f"i{i}.solve.json", tmp_path / f"i{i}.{second}.json"
        assert cli.main(["solve", "--problem", inst.problem, "-i", str(path), "-o", str(solve)]) == 0
        if second == "check":
            argv = ["check", "-i", str(path), "--solution", str(solve), "-o", str(out)]
        else:
            argv = ["exact", "--problem", inst.problem, "-i", str(path), "-o", str(out)]
        assert cli.main(argv) == 0
        got.append([digest(solve.read_bytes()), digest(out.read_bytes())])
    mismatched = [i for i, (a, b) in enumerate(zip(got, ref["ops"])) if a != b]
    assert not mismatched and len(got) == len(ref["ops"]), mismatched
