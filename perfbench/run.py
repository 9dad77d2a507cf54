"""End-to-end benchmark of bellsim: one workload, one seed, one measuring time.

    python3 perfbench/run.py --workload lp-local --seed 1 --seconds 20 --trace 0

Run it from anywhere; it measures the bellsim under ``src/`` of the
checkout that holds this file, and fails (exit status 2, no result) when
there is none.  Workloads are defined in ``workloads.py``.

Each op is one in-process call of ``bellsim.cli.main(argv)`` that writes
its report to a file under ``.perfbench/`` in the checkout.  Ops run one
at a time in a closed loop (a single client; the next op starts when the
previous one returns), in whole passes over the workload's op list, until
``--seconds`` have gone by.  Every op has a time cap; a capped op is
recorded as a timeout and counts as failed.  Each report is read back and
checked (``checks.py``) outside the timed region.  BLAS may use as many
threads as the process has CPUs.

With ``--trace 0`` the last line of standard output is a JSON object
whose metrics are the end-to-end ones:

* ``setup_s``: importing bellsim plus generating and writing the scenario
  files, up to the first timed op; the median of this process's set-up and
  of SETUP_PROBES more in fresh processes;
* ``wall_s``: the median over passes of one pass's summed op times;
* ``op_p50_s``: the median op time over all passes (sample count printed);
* ``peak_rss_mib``: this process's peak resident set; each workload runs in
  its own process, so no other workload's peak can show in it;
* ``ok_share``: ops that completed and passed their check, over ops
  attempted.  Its complement ``failed_share`` is printed above the result
  line (a metric that reads 0 has no relative bound).

With ``--trace 1`` untraced and traced passes alternate (``spans.py``),
the metrics are the per-layer ones, medians over traced passes, and the
spans go to ``.perfbench/traces/<workload>-seed<seed>.json``.
``trace.overhead_s`` is the traced minus the untraced median pass time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: Time cap of a single op.
OP_CAP_S = 60.0

#: All timed work of one invocation ends this long after it starts, so the
#: process exits well within three minutes even if every op hangs.
RUN_LIMIT_S = 150.0

#: Set-ups repeated in fresh processes for the setup_s median.
SETUP_PROBES = 4

WORKLOADS = ("lp-local", "lp-nonlocal", "monte-carlo", "oracle")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "peak_rss_mib": "MiB", "ok_share": "share"}


class OpTimeout(Exception):
    """Raised inside an op that reached its time cap."""


class _Alarm:
    """SIGALRM-based op time cap that only fires while an op is running."""

    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            raise OpTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def _limit_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def timed_setup(workload: str, seed: int, workdir: Path):
    """Import bellsim and write the workload's inputs; returns (ops, seconds)."""
    t0 = time.perf_counter()
    import bellsim.cli  # noqa: F401  (the import is part of set-up)
    import workloads
    ops = workloads.build_ops(workload, seed, workdir)
    return ops, time.perf_counter() - t0


def probe_setups(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "1",
             "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment(nproc: int) -> dict:
    """The numeric environment: not metrics, but what makes results comparable."""
    import numpy
    from bellsim._kernels import BACKEND
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    config = blas.get("openblas configuration", "")
    core = next((tok for tok in config.split()[2:]
                 if not tok.isupper() and "=" not in tok), None)
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    return {"backend": BACKEND,
            "numpy": numpy.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_core": os.environ.get("OPENBLAS_CORETYPE", core),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_max_threads": int(max_threads.group(1)) if max_threads else None,
            "python": platform.python_version(),
            "nproc": nproc}


def check_report(op, out: Path) -> list[str]:
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    try:
        return op.check(report)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def run_pass(ops, workdir: Path, deadline: float, alarm: _Alarm,
             tracer=None) -> list[tuple[str, float, str]]:
    """One pass over ``ops``: (label, seconds, status) per op, where status
    is ok, error, timeout or wrong (completed but failed its check)."""
    from bellsim import cli
    from spans import OP_SPAN
    records = []
    for k, op in enumerate(ops):
        out = workdir / f"op{k}.report.json"
        out.unlink(missing_ok=True)
        argv = [*op.argv, "-o", str(out)]
        cap = min(OP_CAP_S, deadline - time.perf_counter())
        status, seconds = "timeout", 0.0
        if cap > 0:
            t0 = time.perf_counter()
            try:
                alarm.arm(cap)
                rc = (tracer.call(OP_SPAN, cli.main, argv) if tracer is not None
                      else cli.main(argv))
                status = "ok" if rc == 0 else "error"
            except OpTimeout:
                status = "timeout"
            except SystemExit:
                status = "error"
            except Exception as exc:  # a crashing op is recorded; the run goes on
                print(f"perfbench: {op.label}: {exc!r}", file=sys.stderr)
                status = "error"
            finally:
                alarm.disarm()
            seconds = time.perf_counter() - t0
        if status == "ok":
            problems = check_report(op, out)
            if problems:
                status = "wrong"
                print(f"perfbench: {op.label}: {'; '.join(problems)}",
                      file=sys.stderr)
        else:
            print(f"perfbench: {op.label}: {status}", file=sys.stderr)
        records.append((op.label, seconds, status))
    return records


def _wall(records) -> float:
    return sum(seconds for _, seconds, _ in records)


def _print_ops(ops, passes) -> None:
    for k, op in enumerate(ops):
        times = [p[k][1] for p in passes]
        statuses = sorted({p[k][2] for p in passes})
        print(f"op {op.label} median {statistics.median(times):.4f} s "
              f"over {len(times)} passes, status {','.join(statuses)}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "bellsim" / "__init__.py").is_file():
        print(f"perfbench: no bellsim sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT))
    try:
        ops, setup_s = timed_setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(setup_s)
            return 0
        import bellsim
        if SRC not in Path(bellsim.__file__).resolve().parents:
            print(f"perfbench: bellsim imported from {bellsim.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        env = environment(nproc)
        return measure(args, ops, workdir, env, setup_s, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, workdir, env, setup_s, started) -> int:
    import spans
    setups = [setup_s] if args.trace else [setup_s] + probe_setups(args, SETUP_PROBES)
    deadline = started + RUN_LIMIT_S
    alarm = _Alarm()
    plain, traced, tracers = [], [], []
    loop_start = time.perf_counter()
    while True:
        plain.append(run_pass(ops, workdir, deadline, alarm))
        if args.trace:
            tracer = spans.Tracer()
            saved = spans.install(tracer)
            try:
                traced.append(run_pass(ops, workdir, deadline, alarm, tracer))
            finally:
                spans.restore(saved)
            tracers.append(tracer)
        now = time.perf_counter()
        if now - loop_start >= args.seconds or now >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [r for p in plain + traced for r in p]
    attempted = len(records)
    failed = sum(1 for _, _, status in records if status != "ok")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))
    _print_ops(ops, plain)

    if args.trace:
        layers = [spans.per_layer_metrics(t) for t in tracers]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(map(_wall, traced))
                                      - statistics.median(map(_wall, plain)))
        units = spans.PER_LAYER
        out = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "passes": [{"names": t.names, "spans": t.spans, "counts": t.counts,
                        "maxima": t.maxima} for t in tracers]}) + "\n",
            encoding="utf-8")
        print(f"spans of {len(tracers)} traced passes written to {out}")
    else:
        op_times = [seconds for _, seconds, _ in records]
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(map(_wall, plain)),
                  "op_p50_s": statistics.median(op_times),
                  "peak_rss_mib": peak_rss_mib,
                  "ok_share": (attempted - failed) / attempted}
        units = END_TO_END
        print(f"op_p50_s over {len(op_times)} op samples; wall_s over "
              f"{len(plain)} passes; setup_s over {len(setups)} set-ups")
        print("pass walls " + " ".join(f"{_wall(p):.4f}" for p in plain))
        print("set-ups " + " ".join(f"{s:.4f}" for s in setups))
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_share {failed / attempted!r} share ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
