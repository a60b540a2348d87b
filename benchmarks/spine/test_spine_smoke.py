"""Smoke + self-test of the measurement spine.

    python -m pytest benchmarks/spine -q

Not named ``bench_*.py`` and outside ``testpaths``, so neither tier-1
nor the legacy ``--benchmark-only`` collection picks it up.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parents[1]
sys.path.insert(0, str(SPINE_DIR.parent))

from spine import run  # noqa: E402  (needs benchmarks/ on the path)

spine = run._import_spine()
layers, workloads = spine.layers, spine.workloads
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_manifest_matches_declarations():
    """BENCHMARK.json is what ``run.py --manifest`` would write."""
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest(spine)
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"]]
    names += [m["name"] for m in committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert len(committed["workloads"]) == 7
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert len(committed["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in committed["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in committed["end_to_end"])


def test_quick_suite_prints_every_metric(tmp_path):
    """All seven workloads, untraced and traced, in under 30 s."""
    out = tmp_path / "quick.json"
    child = subprocess.run(
        [sys.executable, str(SPINE_DIR / "run.py"), "--quick",
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert child.returncode == 0, child.stdout[-2000:]
    suite = json.loads(out.read_text())
    assert list(suite["workloads"]) == list(workloads.WORKLOADS)
    assert set(suite["host"]) == {"nproc", "python", "platform"}
    for name, parts in suite["workloads"].items():
        assert f"[{name}] end-to-end" in child.stdout
        assert f"[{name}] per-layer" in child.stdout
        end, layer = parts["end_to_end"], parts["per_layer"]
        assert end["result"]["correct"] and layer["result"]["correct"]
        assert end["failed_share"] == 0
        assert list(end["result"]["metrics"]) == \
            [row[0] for row in layers.END_TO_END]
        assert list(layer["result"]["metrics"]) == \
            [row[0] for row in layers.PER_LAYER]
        for metric, entry in end["result"]["metrics"].items():
            assert entry["value"] > 0, (name, metric)
    for row in layers.END_TO_END + layers.PER_LAYER:
        assert row[0] in child.stdout


def test_corrupted_digest_is_a_counted_failure(monkeypatch, capsys):
    """A run whose waves differ from the oracle's fails the benchmark."""
    genuine = workloads.oracle_of

    def tampered(cells):
        expected = genuine(cells)
        for want in expected.values():
            want.digest = "0" * 64
        return expected

    monkeypatch.setattr(workloads, "oracle_of", tampered)
    monkeypatch.setenv("PYTHONHASHSEED", "0")  # main() re-execs otherwise
    status = run.main(["--workload", "seq-vhdl", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert status != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("a,b,better,expected", [
    ([10, 10.1, 10.2], [10.1, 10.2, 10.3], "lower", "same"),
    ([10, 10.1, 10.2], [13, 13.1, 13.2], "lower", "worse"),
    ([10, 10.1, 10.2], [7, 7.1, 7.2], "lower", "better"),
    ([6, 10, 14], [7, 11, 15], "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert spine.compare.verdict(a, b, better, bound=0.10) == expected
