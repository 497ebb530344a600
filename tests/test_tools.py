"""The maintenance tools under tools/, run as their users run them."""
from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOLS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def two_checkouts(tmp_path, monkeypatch, bench_record):
    """Empty parent and change checkouts, the change taken as the script's own."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    monkeypatch.setattr(bench_record, "HERE", str(change))
    return parent, change


def test_workload_argvs_writes_every_forms_stream_op_in_both_formats(tmp_path):
    out = tmp_path / "argvs.json"
    done = subprocess.run([sys.executable, str(TOOLS / "workload_argvs.py"), "--workload", "forms_stream",
                           "--seed", "601", "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    argvs = json.loads(out.read_text())
    # forms_stream draws 200 CLI ops; each is written with --format json, then text
    assert len(argvs) == 400
    assert [argv[-2:] for argv in argvs] == [["--format", "json"], ["--format", "text"]] * 200
    assert [argv[:-2] for argv in argvs[::2]] == [argv[:-2] for argv in argvs[1::2]]
    assert {argv[0] for argv in argvs} == {"gw", "kmw", "tensor", "ehp", "degree", "facts"}


def test_bench_record_runs_each_side_without_writing_bytecode(tmp_path, monkeypatch):
    bench_record = load_bench_record()
    parent, change = two_checkouts(tmp_path, monkeypatch, bench_record)
    calls, real_run = [], subprocess.run

    def run(cmd, **kwargs):  # a perfbench run gives its last stdout line and its stderr
        if cmd[1:2] != ["perfbench/run.py"]:
            return real_run(cmd, **kwargs)  # platform's own probes
        calls.append((kwargs["cwd"], kwargs["env"]))
        metrics = json.dumps({"metrics": {"wall_s": {"value": 0.25, "unit": "s"}}})
        return subprocess.CompletedProcess(cmd, 0, metrics + "\n", "measured before scaling: wall_s 0.3 s\n")

    monkeypatch.setattr(subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_record.main(["--parent", str(parent), "--out", str(out)]) == 0
    assert len(calls) == 2 * bench_record.PAIRS * len(bench_record.WORKLOADS)
    assert {cwd for cwd, _ in calls} == {str(parent), str(change)}
    assert all(env == dict(os.environ, PYTHONDONTWRITEBYTECODE="1") for _, env in calls)
    doc = json.loads(out.read_text())
    assert doc["unscaled_medians"]["forms_stream"]["parent"] == {"wall_s": 0.3}


@pytest.mark.parametrize("side, folder", [("parent", "src/ehpcalc"), ("change", "perfbench")])
def test_bench_record_refuses_a_checkout_with_cached_bytecode(tmp_path, monkeypatch, capsys, side, folder):
    bench_record = load_bench_record()
    parent, _change = two_checkouts(tmp_path, monkeypatch, bench_record)
    cache = tmp_path / side / folder / "__pycache__"
    cache.mkdir(parents=True)
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("a benchmark ran"))
    out = tmp_path / "bench.json"
    assert bench_record.main(["--parent", str(parent), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"refusing to start: {cache} holds cached bytecode; delete it\n"
    assert not out.exists()


def test_cold_ops_times_each_argv_twice_in_a_fresh_fork():
    done = subprocess.run([sys.executable, str(TOOLS / "cold_ops.py"), "--workload", "homology_cold", "--seed", "601",
                           "--limit", "3"], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    head, *runs = done.stdout.splitlines()
    assert head == "homology_cold seed 601: 3 ops, each in a fresh fork, run 2 times"
    assert [line.split(":")[0] for line in runs] == ["first run", "second run"]
    for line in runs:
        ms, faults, exits = re.fullmatch(r".* run: median ([\d.]+) ms, ([\d.]+) minor page faults, (\d+) nonzero exits",
                                         line).groups()
        assert float(ms) > 0 and float(faults) >= 0 and exits == "0"


def test_build_ladder_times_a_first_build_in_a_fresh_child():
    done = subprocess.run([sys.executable, str(TOOLS / "build_ladder.py"), "--rung", "smash_power(W8,3)"],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    rung, seconds, peak = re.fullmatch(r"(.+): ([\d.]+) s, ([\d.]+) MB", done.stdout.strip()).groups()
    assert rung == "smash_power(W8,3)" and float(seconds) > 0 and float(peak) > 0
