"""Run one koszulcat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 10 --trace 0

Workloads are ``resolve``, ``mc_search`` and ``closed`` (``all`` runs each
in its own process, one after the other).  Metric names, units and the
reasons behind each workload are in ``perfbench/spec.json``.

Each workload is a closed loop with one client in this single-threaded
process: jobs run back to back and each ends in a checked result.  A
round runs every fixed deep instance once and then one whole pass over
the shuffled sweep pool; rounds repeat until at least ``--seconds`` have
gone by and at least three rounds are done.  Job times are scaled to
reference machine speed (see ``perfbench/speed.py``) and each job counts
with its median round: ``deep_s`` sums them over the deep instances, and
``sweep_jobs_per_s`` divides the pool size by their sum over the pool.
Every job's fingerprint is compared with ``perfbench/expected.json``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the deep instances and one sweep pass run untraced,
then again under the tracer of ``perfbench/tracer.py``, and the last line
carries the per-layer metrics.  ``--smoke`` runs a tiny slice (one deep
instance, five sweep jobs, one round), for the benchmark's own tests.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run fails.  A full record (environment, per-job times,
failures, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MEMORY_CAP = 1 << 30  # address space; a job past it fails with MemoryError
SETUP_REPEATS = 9
MIN_ROUNDS = 3
SMOKE_SWEEP_JOBS = 5

import speed  # noqa: E402  (perfbench/, the directory of this script)
import tracer  # noqa: E402
import workloads  # noqa: E402


def _load(name: str):
    with open(BENCH / name) as fh:
        return json.load(fh)


class Outcome:
    __slots__ = ("job", "seconds", "scaled", "samples", "failed", "unexpected",
                 "reason")

    def __init__(self, job, seconds, scaled, samples, failed, unexpected, reason):
        self.job, self.seconds, self.scaled = job, seconds, scaled
        self.samples = samples  # speed-probe sample indices at start and end
        self.failed, self.unexpected, self.reason = failed, unexpected, reason


class Runner:
    def __init__(self, expected: Dict, known: Dict, probe: speed.SpeedProbe):
        self.expected = expected
        self.known = known
        self.probe = probe
        self.outcomes: List[Outcome] = []
        self.fingerprints: Dict[str, object] = {}
        self.tracer: Optional[tracer.Tracer] = None

    def run_job(self, job) -> Outcome:
        if self.tracer is not None:
            self.tracer.job = job.id
        mark = self.probe.mark()
        try:
            fp, problems = job.run()
            error = None
        except Exception as exc:  # a job that raises counts as failed; go on
            fp, problems, error = None, [], f"{type(exc).__name__}: {exc}"
        seconds, scaled = self.probe.since(mark)
        samples = (mark[2], len(self.probe.samples))
        reason = error
        unexpected = error is not None
        if fp is not None:
            got = json.loads(json.dumps(fp))
            self.fingerprints[job.id] = got
            want = self.expected.get(job.id)
            if got != want:
                reason = f"fingerprint {got} != expected {want}"
                unexpected = True
        if problems and reason is None:
            reason = problems[0]
            unexpected = job.id not in self.known
        out = Outcome(job.id, seconds, scaled, samples, reason is not None,
                      unexpected, reason)
        self.outcomes.append(out)
        return out

    def run_all(self, jobs) -> float:
        """Run ``jobs`` back to back; their summed scaled seconds."""
        return sum(self.run_job(job).scaled for job in jobs)


def _purge_library() -> None:
    for name in list(sys.modules):
        if name == "koszulcat" or name.startswith("koszulcat."):
            del sys.modules[name]


def _setup(name: str, seed: int, repeats: int, probe: speed.SpeedProbe):
    """Import the library and build every input, ``repeats`` times.

    Each repeat drops the library from ``sys.modules`` first, so the
    import is timed again; the last build is the one that runs.  Returns
    the scaled seconds of each repeat.
    """
    times = []
    for _ in range(repeats):
        _purge_library()
        mark = probe.mark()
        lib = importlib.import_module("koszulcat")
        wl = workloads.build(name, seed)
        times.append(probe.since(mark)[1])
    lib_dir = Path(lib.__file__).resolve().parent
    if lib_dir != SRC / "koszulcat":
        raise RuntimeError(f"koszulcat imported from {lib_dir}, not {SRC}")
    return wl, times


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> Dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        "memory_cap_bytes": MEMORY_CAP,
    }


def _cap_memory() -> None:
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _slice(args, wl):
    if not args.smoke:
        return wl.deep, wl.sweep
    deep = [j for j in wl.deep if j.id == workloads.SMOKE_DEEP[wl.name]]
    return deep, wl.sweep[:SMOKE_SWEEP_JOBS]


def _timed_run(args, wl, runner: Runner) -> Dict:
    """Rounds of every deep instance plus one sweep pass; end-to-end
    metrics from each job's median round."""
    deep, sweep = _slice(args, wl)
    t_start = time.perf_counter()
    rounds = 0
    while True:
        runner.run_all(deep)
        runner.run_all(sweep)
        rounds += 1
        if args.smoke or (rounds >= MIN_ROUNDS and
                          time.perf_counter() - t_start >= args.seconds):
            break
    times: Dict[str, List[float]] = {}
    for o in runner.outcomes:
        times.setdefault(o.job, []).append(o.scaled)
    attempted = len(runner.outcomes)
    failed = sum(o.failed for o in runner.outcomes)
    return {
        "deep_s": sum(statistics.median(times[j.id]) for j in deep),
        "sweep_jobs_per_s":
            len(sweep) / sum(statistics.median(times[j.id]) for j in sweep),
        "verified_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _traced_run(args, wl, runner: Runner, record: Dict) -> Dict:
    """The deep instances and one sweep pass, untraced and then traced;
    per-layer metrics."""
    deep, sweep = _slice(args, wl)
    plain = runner.run_all(deep) + runner.run_all(sweep)
    runner.tracer = tracer.Tracer()
    runner.tracer.install()
    first = len(runner.probe.samples)
    traced = runner.run_all(deep) + runner.run_all(sweep)
    metrics = runner.tracer.metrics(runner.probe.scale(first))
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    record["self_s"] = dict(runner.tracer.self_s)
    record["counts"] = dict(runner.tracer.counts)
    record["spans"] = runner.tracer.spans
    return metrics


def run_workload(args) -> int:
    if not (SRC / "koszulcat" / "__init__.py").is_file():
        print(f"error: no koszulcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _cap_memory()
    spec = _load("spec.json")
    units = {m["name"]: m["unit"] for m in spec["metrics"]}
    repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS
    record: Dict = {"env": _environment(args)}
    with speed.SpeedProbe() as probe:
        wl, setup_s = _setup(args.workload, args.seed, repeats, probe)
        runner = Runner(_load("expected.json")[args.workload],
                        spec["known_failures"].get(args.workload, {}), probe)
        if args.trace:
            metrics = _traced_run(args, wl, runner, record)
        else:
            metrics = {"setup_s": statistics.median(setup_s),
                       **_timed_run(args, wl, runner)}
    record["setup_s"] = setup_s
    record["speed_samples"] = probe.samples

    attempted = len(runner.outcomes)
    failed = [o for o in runner.outcomes if o.failed]
    unexpected = [o for o in failed if o.unexpected]
    record["jobs"] = [[o.job, o.seconds, o.scaled, o.samples, o.reason]
                      for o in runner.outcomes]
    record["fingerprints"] = runner.fingerprints
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump(record, fh)

    for name, v in metrics.items():
        print(f"{wl.name:>9}  {name:<28} {v:>14.6g} {units[name]}", file=sys.stderr)
    seen = set()
    for o in failed:
        if o.job not in seen:
            seen.add(o.job)
            tag = "UNEXPECTED" if o.unexpected else "known"
            print(f"{wl.name:>9}  {tag} failure {o.job}: {o.reason[:200]}",
                  file=sys.stderr)
    print(json.dumps({"env": record["env"], "record": str(out_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


def run_each(args) -> int:
    """``--workload all``: every workload in a process of its own."""
    rc = 0
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        rc = max(rc, subprocess.run(cmd, cwd=ROOT).returncode)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_each(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
