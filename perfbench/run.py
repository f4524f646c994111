"""Benchmark entry point: one workload run, printed as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-tight --seed 0 --seconds 12 --trace 0

Every workload (recipes in ``inputs.py``) runs rounds of one certified
build, then a closed loop of update batches and resistance queries
served from that build, so each measures every end-to-end metric:

- ``grid-tight`` and ``powerlaw`` go on for at least ``--seconds`` (and
  at least three rounds), serving the same 3 batches, each followed by 3
  queries, every round; the builds are their main work.
- ``stream-serve`` certifies its initial build during set-up, then runs
  four rounds of 25 batches, each on its own event stream: a fixed
  amount of work whatever ``--seconds`` says, because its quality
  metrics are read at the end of each episode; the serving is its main
  work.

The run writes the inputs (graph as Matrix Market, event streams, query
pairs) under ``.perfbench_work/`` in the checkout, then starts fresh
processes with one BLAS thread, a fixed hash seed, numpy's huge-page
advice off, a fixed malloc mmap threshold and address-space
randomization off: a few set-up probes, which load the input and stop once
ready, and the measured process (``workload.py``).  ``setup_s`` is the
median set-up time over all of them.  With ``--trace 0`` the last line
carries the workload's end-to-end metrics; with ``--trace 1`` the
per-layer metrics.  The line before it echoes the run's settings,
sample counts, per-operation failures and machine-drift diagnostics
(calibration kernel time at start and end, steal ticks).  A failed
operation or check makes ``correct`` false; a crash exits non-zero
without a result, as does a checkout without ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel grants them varies from run to run, and with it peak RSS
    # (±5 % on identical work).  Measured speed is the same either way.
    "NUMPY_MADVISE_HUGEPAGE": "0",
    # glibc moves its mmap threshold up as large blocks are freed, and
    # where it ends depends on the order of frees: peak RSS of identical
    # work landed on 271 or 338 MB on ``grid-tight``.  Fixing it at its
    # starting value (128 KiB) gives one value (213 MB).
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
#: Linux personality flag that turns off address-space randomization.
#: With it on, peak RSS of identical work lands on one of several values
#: 10 % apart (heap and mmap placement); with it off, on one value.
ADDR_NO_RANDOMIZE = 0x0040000

#: Extra cold starts that only set up, besides the measured process.
SETUP_PROBES = 2
#: Every child must finish within this many seconds of the run's start.
DEADLINE_S = 170.0


def _args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _no_aslr() -> None:
    """Run in the child before exec: keep its address-space layout fixed."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def _child(mode: str, args, inputs: Path, env: dict, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh process; its last stdout line as JSON."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--inputs", str(inputs), "--spawned", repr(spawned), "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, preexec_fn=_no_aslr,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    args = _args()
    deadline = time.monotonic() + DEADLINE_S
    spec = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec.is_file():
        print(f"no program to measure under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(spec.read_text(encoding="utf-8"))
    os.environ.update(ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        write_inputs(args.workload, args.seed, workdir)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_child("probe", args, workdir, env, deadline)["setup_s"])
        result = _child("trace" if args.trace else "run", args, workdir, env,
                        deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
    else:
        names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = sorted(set(names) - set(values))
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    operations = result["operations"]
    attempted = sum(op["attempted"] for op in operations.values())
    failed = sum(op["failed"] for op in operations.values())
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "settings": result["settings"], "setup_s_samples": setups,
        "samples": result["samples"], "operations": operations,
        "problems": result["problems"], "diagnostics": result["diagnostics"],
    }))
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
