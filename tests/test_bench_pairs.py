"""The environment tools/bench_pairs.py gives each side's runs, and its record (runs faked)."""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def _checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}], "end_to_end": [{"name": "item_s", "better": "lower"}]}))
    return root


def test_side_env_is_the_callers_with_its_own_pycache_prefix(tmp_path, monkeypatch):
    # a caller that writes no bytecode would leave each side compiling numpy and
    # the standard library into its empty prefix in every interpreter
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("LOGPERIODIC_WORKERS", "2")
    a, b = bench_pairs.side_env(tmp_path / "a"), bench_pairs.side_env(tmp_path / "b")
    assert a["PYTHONPYCACHEPREFIX"] == str(tmp_path / "a") != b["PYTHONPYCACHEPREFIX"]
    assert "PYTHONDONTWRITEBYTECODE" not in a and "PYTHONDONTWRITEBYTECODE" not in b
    assert a["LOGPERIODIC_WORKERS"] == b["LOGPERIODIC_WORKERS"] == "2"
    rest = {k: v for k, v in a.items() if k != "PYTHONPYCACHEPREFIX"}
    assert rest == {k: v for k, v in b.items() if k != "PYTHONPYCACHEPREFIX"}


def test_a_run_under_side_env_keeps_its_bytecode_under_its_prefix(tmp_path):
    # an interpreter started with the side's environment looks for bytecode
    # under the prefix, not in a __pycache__ next to the sources, and writes
    # what it compiles there
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("")
    env = bench_pairs.side_env(tmp_path / "a")
    done = subprocess.run([sys.executable, "-c", "import sys, probe; print(sys.pycache_prefix)"],
                          cwd=tmp_path / "src", env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == str(tmp_path / "a")
    assert not (tmp_path / "src" / "__pycache__").exists()
    assert list((tmp_path / "a").rglob("probe.*.pyc"))


def test_each_side_runs_under_its_own_prefix_outside_both_checkouts(tmp_path, monkeypatch):
    trees = [_checkout(tmp_path / "a"), _checkout(tmp_path / "b")]
    seen = []

    def fake_run(args, cwd, capture_output, text, env):
        seen.append((Path(cwd), env["PYTHONPYCACHEPREFIX"]))
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"item_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(args, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    output = tmp_path / "out.json"
    assert bench_pairs.main([str(trees[0]), str(trees[1]), "--pairs", "2", "--label-a", "a",
                             "--label-b", "b", "--output", str(output)]) == 0
    prefixes = {tree: {prefix for cwd, prefix in seen if cwd == tree} for tree in trees}
    # one prefix per side, the same over its runs, and neither inside a checkout
    assert [len(p) for p in prefixes.values()] == [1, 1]
    (pa,), (pb,) = prefixes.values()
    assert pa != pb
    for prefix in (pa, pb):
        assert not any(Path(prefix).is_relative_to(tree) for tree in trees)
    assert json.loads(output.read_text())["settings"]["bytecode"] == bench_pairs.BYTECODE
