"""A reader over a base index and 3 upsert deltas answers on a Ray session
of 2 logical CPUs.

A reader used to open one actor pool per index dir: the base's 2 actors
plus 1 per delta, 5 actors of 0.5 CPU, which is 2.5 CPUs. At 2 logical
CPUs the last actor never started and the first search waited forever.
One IndexReader over every index dir holds one pool of at most
``max(2, cpus // 2)`` actors, whatever the number of dirs.

The search runs in a child process with its own Ray session and temp
dir, under a deadline. On timeout the child's process group is killed,
and so is every process still running under that session's temp dir.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

TIMEOUT_S = 180

CHILD = r"""
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from probe_ray.index.build import IndexConfig, build_index
from probe_ray.index.upsert import upsert_segment
from probe_ray.search.searcher import IndexReader

work, ray_tmp = sys.argv[1], sys.argv[2]
ray.init(address="local", num_cpus=2, include_dashboard=False, _temp_dir=ray_tmp)


def table(rows):
    return pa.table({
        "repo": [r[0] for r in rows],
        "path": [r[1] for r in rows],
        "commit": ["c0"] * len(rows),
        "lang": ["rs"] * len(rows),
        "content": [r[2] for r in rows],
    })


corpus = os.path.join(work, "corpus")
os.makedirs(corpus)
pq.write_table(
    table([(f"r{i % 3}", f"src/m{i:03d}.rs", f"fn handler{i}() {{ request {i % 7} }}")
           for i in range(120)]),
    os.path.join(corpus, "part0.parquet"),
)
base = os.path.join(work, "base")
build_index([corpus], base, IndexConfig(num_waves=1, subshards=2))

# each fragment rewrites 3 base docs and inserts 1 under its own marker
members = [base]
for u, marker in enumerate(["upsertmarkeralpha", "upsertmarkerbeta", "upsertmarkergamma"]):
    rows = [(f"r{i % 3}", f"src/m{i:03d}.rs", f"fn rewritten() {{ {marker} }}")
            for i in range(10 * u, 10 * u + 3)]
    rows.append(("r0", f"new/f{u}.rs", f"struct New{u} {{ {marker} }}"))
    frag = os.path.join(work, f"frag{u}.parquet")
    pq.write_table(table(rows), frag)
    delta = os.path.join(work, f"delta{u}")
    upsert_segment(members, frag, delta)
    members.append(delta)

rd = IndexReader(members, tombstone_scope="member")
got = rd.search(marker, k=20)
rd.close()
want = sorted((r[0], r[1]) for r in rows)
assert sorted(zip(got.column("repo").to_pylist(), got.column("path").to_pylist())) == want, got
ray.shutdown()
print("answered", got.num_rows)
"""


def test_base_and_three_deltas_answer_at_two_cpus():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = tempfile.mkdtemp(prefix="fed2cpu-")
    # short: Ray's socket paths under it must stay within the OS limit
    ray_tmp = tempfile.mkdtemp(prefix="ray2cpu-")
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, work, ray_tmp],
        cwd=repo,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        raise AssertionError(
            f"no answer within {TIMEOUT_S} s at 2 logical CPUs:\n{out[-3000:]}"
        )
    finally:
        # whatever of the child's Ray session outlived it
        subprocess.run(["pkill", "-KILL", "-f", ray_tmp], check=False)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    assert proc.returncode == 0, out[-3000:]
    assert "answered 4" in out, out[-3000:]
