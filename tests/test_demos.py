import os
import subprocess
import sys
from pathlib import Path

import logperiodic


def test_demos_run_without_traceback():
    # a demo that still uses a deleted name fails here, not in a reader's hands
    root = Path(__file__).resolve().parents[1]
    src = str(Path(logperiodic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHON=sys.executable,
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    scripts = sorted((root / "demos").glob("0[1-4]_*.py"))
    assert len(scripts) == 4
    commands = [[sys.executable, str(script)] for script in scripts]
    commands.append(["sh", str(root / "demos" / "05_cli_pipeline.sh")])
    for command in commands:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (command, done.stderr)
        assert "Traceback" not in done.stdout + done.stderr, command
