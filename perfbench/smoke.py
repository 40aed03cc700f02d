"""Smoke check for the benchmark harness.

    python3 perfbench/smoke.py

1. A directory holding only BENCHMARK.json and perfbench/ (no engine):
   run.py must exit non-zero without printing a result line.
2. A working directory outside the repository: run.py must finish with
   exit code 0 and print, as its last line, a correct result carrying
   exactly the metrics BENCHMARK.json names (end-to-end with --trace 0,
   per-layer with --trace 1). This is the path where Ray workers can
   import the engine only through the session's runtime environment.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, script: str, trace: int, seconds: int = 2) -> tuple[int, list[str]]:
    cmd = [sys.executable, script, "--workload", "query_hot", "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return p.returncode, p.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    scratch = tempfile.mkdtemp(prefix="perfbench-smoke-")
    try:
        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = _run(bare, os.path.join("perfbench", "run.py"), 0)
        printed = any(line.startswith("{") for line in out)
        print(f"bare directory: exit {rc}, result printed: {printed}")
        ok &= rc != 0 and not printed

        elsewhere = os.path.join(scratch, "elsewhere")
        os.makedirs(elsewhere)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = _run(elsewhere, os.path.join(HERE, "run.py"), trace)
            res = json.loads(out[-1]) if out else {}
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in res.get("metrics", {}).items()}
            good = rc == 0 and res.get("correct") is True and res.get("failed") == 0 and got == want
            print(f"outside the repository, --trace {trace}: exit {rc}, correct {res.get('correct')}, metrics match: {got == want}")
            if got != want:
                print(f"  missing {sorted(set(want) - set(got))}, unexpected {sorted(set(got) - set(want))}")
            ok &= good
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
