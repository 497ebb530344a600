"""The maintenance tools under tools/, run as their users run them."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
