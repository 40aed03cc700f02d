"""A hybrid query answers on a Ray session of 1 logical CPU.

The query actor pool holds every CPU of such a session (two actors of 0.5
CPU), so a candidate route that launched a Ray Data job would wait
forever for a CPU. The candidate set here is larger than 4,096 docs: the
size at which the hybrid path once switched from the doc-store fan-out
to a Ray Data read of the corpus.

The query runs in a child process with its own Ray session and temp dir,
under a deadline. On timeout the child's process group is killed, and so
is every process still running under that session's temp dir.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

TIMEOUT_S = 180
N_DOCS = 6000
N_CANDIDATES = 4400

CHILD = r"""
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray

from probe_ray.index.build import build_index
from probe_ray.search.scan import scan_search_many
from probe_ray.search.searcher import IndexReader

work, ray_tmp, n_docs, n_cand = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
ray.init(address="local", num_cpus=1, include_dashboard=False, _temp_dir=ray_tmp)

# camel identifiers whose expansion changes under the special terms
# "hashmap" and "database": every one of the first n_cand docs is a
# candidate, the rest hold neither term
idents = ["hashmapLoader()", "databaseClient()", "hashmapStore(databaseClient)"]
content = [
    f"let v = {idents[i % 3]}; handle request {i % 50}" if i < n_cand
    else f"plain handler code for request {i % 50}"
    for i in range(n_docs)
]
corpus = os.path.join(work, "corpus")
os.makedirs(corpus)
table = pa.table({
    "repo": [f"r{i % 4}" for i in range(n_docs)],
    "path": [f"src/m{i:05d}.rs" for i in range(n_docs)],
    "commit": ["c0"] * n_docs,
    "lang": ["rs"] * n_docs,
    "content": content,
})
for f in range(4):
    pq.write_table(table.slice(f * n_docs // 4, n_docs // 4),
                   os.path.join(corpus, f"part{f}.parquet"))
idx = os.path.join(work, "idx")
build_index([corpus], idx)

q = '"hashmap" -database'
rd = IndexReader(idx)
keys = rd.special_candidate_keys(
    ["database", "hashmap"], [frozenset({"hashmap", "database"})]
)
assert keys.num_rows == n_cand, keys.num_rows
got = rd.search(q, k=10)
rd.close()
want = scan_search_many(rd.manifest["input_files"], {"q": q}, k=10)["q"]
assert got.num_rows == 10 and got.equals(want)
ray.shutdown()
print("answered", keys.num_rows)
"""


def test_hybrid_query_answers_at_one_cpu():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = tempfile.mkdtemp(prefix="hyb1cpu-")
    # short: Ray's socket paths under it must stay within the OS limit
    ray_tmp = tempfile.mkdtemp(prefix="ray1cpu-")
    env = dict(os.environ, PYTHONPATH=repo, PROBE_RAY_HYBRID_CACHE="0")
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, work, ray_tmp, str(N_DOCS), str(N_CANDIDATES)],
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
            f"no answer within {TIMEOUT_S} s at 1 logical CPU:\n{out[-3000:]}"
        )
    finally:
        # whatever of the child's Ray session outlived it
        subprocess.run(["pkill", "-KILL", "-f", ray_tmp], check=False)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
    assert proc.returncode == 0, out[-3000:]
    assert f"answered {N_CANDIDATES}" in out, out[-3000:]
