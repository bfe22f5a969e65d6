"""Cold-process import guard for ``repro check``.

A fresh interpreter runs the case-study query Q3 through
:func:`repro.cli.main` under every engine and once with ``--certify``,
and reports which heavy optional modules each run has loaded.  None of
them needs ``scipy.signal`` (it drags in scipy.stats, optimize,
interpolate and ndimage, most of a second of start-up) or the
``http.server`` stack behind ``--metrics-port``; loading either again
would show up in the wall time of every command-line check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

#: Modules a plain ``repro check`` must never import.
FORBIDDEN = ("scipy.signal", "http.server")

RUNS = {
    "sericola": ["--engine", "sericola"],
    "erlang": ["--engine", "erlang"],
    "discretization": ["--engine", "discretization"],
    "certify": ["--engine", "sericola", "--certify"],
}

CHILD = """
import contextlib, io, json, sys
from repro import cli
runs = json.loads(sys.argv[1])
forbidden = json.loads(sys.argv[2])
loaded = {}
for name, extra in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--model", "adhoc", "--formula", "Q3"]
                        + extra)
    loaded[name] = {"code": code,
                    "modules": [m for m in forbidden if m in sys.modules]}
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded_after_each_run():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(RUNS),
         json.dumps(FORBIDDEN)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("run", sorted(RUNS))
def test_check_loads_no_heavy_optional_modules(loaded_after_each_run, run):
    result = loaded_after_each_run[run]
    # Q3 is FALSE on the case study: exit code 1 is the verdict.
    assert result["code"] == 1
    assert result["modules"] == []
