"""The entry paths load neither sympy nor networkx; sympy loads only
where a closed form is derived; a warm ``repro batch`` loads no numpy.

Each check runs in a fresh interpreter, since this test session itself
has long since imported sympy through the parametric tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRELUDE = """
import contextlib, io, json, sys
import repro, repro.api, repro.cli, repro.core.optimizer, repro.server

def heavy():
    return [m for m in ("sympy", "mpmath", "networkx") if m in sys.modules]

seen = {"import": heavy()}
"""

CLI_PARAM = """
with contextlib.redirect_stdout(io.StringIO()) as out:
    status = repro.cli.main(["param", "sor", "--sizes", "8x8"])
seen["answer"] = [status, "mws      : 2*N2" in out.getvalue()]
"""

API_PARAM = """
from repro.api import AnalysisService, build_request

def ask(kind):
    return service.submit(build_request({"kind": kind, "kernel": "sor"}))

with AnalysisService() as service:
    seen["statuses"] = [
        ask(kind).status
        for kind in ("optimize", "search", "mws", "analyze", "hierarchy")
    ]
    seen["engines"] = heavy()
    response = ask("param")
seen["answer"] = [response.status, response.result["mws_expr"]]
"""


def _run(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    script = PRELUDE + body + '\nseen["after"] = heavy()\nprint(json.dumps(seen))\n'
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_entry_paths_import_no_sympy_or_networkx_until_a_closed_form():
    cli = _run(CLI_PARAM)
    assert cli["import"] == []
    assert cli["answer"] == [0, True]
    assert {"sympy", "mpmath"} <= set(cli["after"])

    api = _run(API_PARAM)
    assert api["import"] == []
    assert api["statuses"] == ["ok"] * 5
    assert api["engines"] == []
    assert api["answer"] == ["ok", "2*N2"]
    assert {"sympy", "mpmath"} <= set(api["after"])
    assert "networkx" not in cli["after"] + api["after"]


WARM_BATCH = """
import sys
import repro.cli

status = repro.cli.main(
    ["--store", STORE, "batch", "benchmarks/manifests/figure2.json"]
)
print(json.dumps({"status": status, "numpy": "numpy" in sys.modules}))
"""


def test_warm_batch_is_record_reads_without_numpy(tmp_path):
    """A warm figure2 batch is answered by the store's answer records:
    the analysis stack, numpy with it, never loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    script = f"import json\nSTORE = {str(tmp_path)!r}\n" + WARM_BATCH

    def run() -> tuple[dict, list[str]]:
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        kinds = sorted(path.parent.name for path in tmp_path.glob("v*/*/*.json"))
        return json.loads(proc.stdout.splitlines()[-1]), kinds

    # The cold run writes one answer per unique item and its run record.
    assert run() == ({"status": 0, "numpy": True}, ["answer"] * 8 + ["ledger"])
    assert run() == (
        {"status": 0, "numpy": False}, ["answer"] * 8 + ["ledger"] * 2
    )


def test_reexports_resolve_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro\n"
         "assert 'repro.core' not in sys.modules\n"
         "from repro import optimize_program, parse_program\n"
         "print(optimize_program(parse_program("
         "'for i = 1 to 9 { for j = 1 to 9 { X[i + j] } }')).mws_after)"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
