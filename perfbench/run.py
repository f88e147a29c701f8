"""keyecho benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload attack_44k --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; keyecho is imported from the
checkout's src/. The inputs for (workload, seed) are generated first, in
this process, into .perfbench/cache/. Then the measured process
(worker.py) is started SETUP_PROBES + 1 times: the probes only set up, the
last one also runs the workload for --seconds. The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics
(and the tracing overhead) for --trace 1. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 6
WORKER_LIMIT_S = 150.0   # the measured process is killed after this


def start_worker(cmd, env):
    """Start the worker; return (stdout after READY, seconds to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    timer = threading.Timer(WORKER_LIMIT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker exited with {code} before finishing")
    return rest, setup_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "keyecho" / "__init__.py").is_file():
        print(f"no keyecho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # The generator runs here, single-threaded; the program keeps the
    # caller's environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import gen

    plan = gen.ensure(args.workload, args.seed, ROOT, WORK / "cache")
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.spans.jsonl")]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(start_worker(cmd + ["--setup-only"], env)[1])
    rest, setup_s = start_worker(cmd, env)
    setups.append(setup_s)
    result = json.loads(rest.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    line = json.dumps(result)
    (out_dir / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
