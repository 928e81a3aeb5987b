"""ffil benchmark: real CLI commands, each in a fresh Python process.

    python3 perfbench/run.py --workload poly-grid --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository (the package is imported from `src/`).
A run repeats passes over the workload's commands until another pass would
exceed `--seconds`, checks every report, and prints a summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, medians over passes:
  wall_s       sum over the commands of the time spent inside `ffil.cli.main`
  setup_s      sum over the commands of the time from spawn to `import ffil.cli`
  peak_rss_mb  largest peak resident set size of one command's process
--trace 1 alternates untraced and traced passes and reports per-layer self
times and work counts (see tracer.py), plus the tracing overhead.

`--workload all` runs every workload in turn; `--record` rewrites the
expected exit codes and report digests of the recorded seed (expected.json).
A command fails when it exits 1 or 3, raises, writes no parseable report,
its exit code disagrees with its report's verification block, or its exit
code or report digest differs from its first pass in the run (reports replay
from their seed, traced or not); on the recorded seed also when they differ
from expected.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
EXPECTED = HERE / "expected.json"
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DIGEST_SKIP = ("timing", "config", "counters")


def child_env():
    """Inherited environment without the sphere disk cache, BLAS pinned.

    Bytecode caching is left on, as for an installed package, so set-up time
    measures interpreter start and imports rather than compiling ffil.
    """
    drop = ("FFIL_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def report_digest(report):
    """sha256 of the report without its timing, config and counters blocks."""
    body = {k: v for k, v in report.items() if k not in DIGEST_SKIP}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def verdict_ok(report):
    """True when the report's verification block holds no failed check."""
    ver = report["verification"]
    flags = [v for v in ver.values() if isinstance(v, bool)]
    return all(flags) and ver.get("outcome", "verified-free") == "verified-free"


class Runner:
    """Spawns one child per command and checks what it reports."""

    def __init__(self, tmp, expected=None, limit_s=RUN_LIMIT_S):
        self.tmp = tmp
        self.expected = expected or {}
        self.replays = {}
        self.env = child_env()
        self.deadline = time.monotonic() + limit_s
        self.attempted = 0
        self.problems = []

    @property
    def failed(self):
        return len(self.problems)

    def warm_up(self):
        """Import once untimed, so bytecode caches exist before any timing."""
        subprocess.run([sys.executable, "-c", "import ffil.cli"], env=self.env,
                       check=True, timeout=60)

    def command(self, label, argv, trace):
        """Run one command; returns its child record, or None once out of time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None
        res_path, out_path = self.tmp / "child.json", self.tmp / "report.json"
        for path in (res_path, out_path):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(res_path), str(int(trace)), "--",
               *argv, "--output", str(out_path)]
        self.attempted += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            self._fail(label, "timed out")
            return None
        try:
            rec = json.loads(res_path.read_text())
        except (OSError, ValueError):
            self._fail(label, f"no result from child: {proc.stderr.strip()[-300:]}")
            return {}
        rec["setup_s"] = rec["import_done"] - spawned
        rec["report"] = None
        problem = self._check(label, rec, out_path)
        if problem:
            self._fail(label, problem)
        return rec

    def _check(self, label, rec, out_path):
        code = rec["exit"]
        if rec["raised"]:
            return "raised:\n" + rec["raised"]
        if code not in (0, 2):
            return f"exit {code}"
        try:
            report = json.loads(out_path.read_text())
            consistent = (code == 0) == verdict_ok(report)
        except (OSError, ValueError, KeyError, AttributeError, TypeError) as exc:
            return f"unparseable report: {exc!r}"
        if not consistent:
            return f"exit {code} disagrees with verification {report['verification']}"
        rec["report"] = report
        got = {"exit": code, "digest": report_digest(report)}
        first = self.replays.setdefault(label, got)
        if got != first:
            return f"report differs from the first pass: got {got}, first {first}"
        want = self.expected.get(label)
        if want is not None and got != want:
            return f"recorded-seed mismatch: got {got}, expected {want}"
        return None

    def _fail(self, label, why):
        self.problems.append(f"{label}: {why}")

    def run_pass(self, cmds, trace):
        """All commands once; None if the run ran out of time."""
        recs = []
        for label, argv in cmds:
            rec = self.command(label, argv, trace)
            if rec is None:
                return None
            recs.append(rec)
        return recs


def summarize_pass(recs):
    ok = [r for r in recs if r]
    return {
        "wall_s": sum(r["wall_s"] for r in ok),
        "setup_s": sum(r["setup_s"] for r in ok),
        "peak_rss_mb": max((r["maxrss_kb"] / 1024 for r in ok), default=0.0),
    }


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics: self times are medians over traced passes; work
    counts repeat exactly for a seed and are taken from the last pass."""
    per_pass = []
    for recs in traced:
        self_s = {}
        for rec in recs:
            for name, val in tracer.self_times(rec.get("spans", [])).items():
                self_s[name] = self_s.get(name, 0.0) + val
        per_pass.append(self_s)
    counts = {}
    for rec in traced[-1]:
        for span in rec.get("spans", []):
            counts[f"{span[0]}.calls"] = counts.get(f"{span[0]}.calls", 0) + 1
        for key, val in rec.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + val
    traced_wall = statistics.median(summarize_pass(r)["wall_s"] for r in traced)
    out = {}
    for name in tracer.layer_metric_names():
        stem, stat = name.rsplit(".", 1)
        if stat == "self_s":
            out[name] = statistics.median(p.get(stem, 0.0) for p in per_pass)
        elif stem != "trace":
            out[name] = counts.get(name, 0)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return out


def measure(cmds, seconds, trace, runner):
    """Passes until the next would overrun `seconds`; returns (metrics, passes)."""
    modes = (False, True) if trace else (False,)
    untraced, traced = [], []
    start, rounds = time.monotonic(), 0
    while rounds == 0 or (time.monotonic() - start) * (rounds + 1) / rounds <= seconds:
        done = [runner.run_pass(cmds, is_traced) for is_traced in modes]
        if None in done:
            break
        for is_traced, recs in zip(modes, done):
            (traced if is_traced else untraced).append(recs)
        rounds += 1
    if not rounds:
        return {}, 0
    wall = statistics.median(summarize_pass(r)["wall_s"] for r in untraced)
    if trace:
        return layer_metrics(traced, wall), rounds
    sums = [summarize_pass(r) for r in untraced]
    return {key: statistics.median(s[key] for s in sums) for key in sums[0]}, rounds


def run_context(args):
    """Machine and software facts that a reader needs to compare runs."""
    ctx = {"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace, "blas_threads": BLAS_THREADS,
           "python": platform.python_version(), "nproc": os.cpu_count()}
    ctx["git_sha"] = None
    if (ROOT / ".git").exists():
        try:
            ctx["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy

        ctx["numpy"] = numpy.__version__
    except ImportError:
        ctx["numpy"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            ctx["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), None)
    except OSError:
        ctx["cpu"] = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                ctx[f"l{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return ctx


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    stat = name.rsplit(".", 1)[1]
    if stat in ("self_s", "wall_s"):
        return "s"
    return "ratio" if stat.endswith("_frac") else "count"


def print_summary(name, metrics, passes, runner):
    attempted, failed = runner.attempted, runner.failed
    print(f"{name}: {passes} passes, {attempted} commands, {failed} failed")
    print(f"  {'failed_frac':<44} {failed / max(attempted, 1):.4f} ratio")
    wall = metrics.get("trace.wall_s") or metrics.get("wall_s")
    for key, val in metrics.items():
        share = ""
        if key.endswith(".self_s") and wall:
            share = f"  ({100 * val / wall:5.1f}% of traced wall)"
        print(f"  {key:<44} {val:.6g} {unit_of(key)}{share}")
    if "trace.wall_s" in metrics:
        layers = {}
        for key, val in metrics.items():
            if key.endswith(".self_s"):
                mod = key.split(".", 1)[0]
                layers[mod] = layers.get(mod, 0.0) + val
        total = sum(layers.values())
        print("  layer self-time shares: " + ", ".join(
            f"{m} {100 * v / wall:.1f}%" for m, v in layers.items()))
        print(f"  self times sum to {100 * total / wall:.1f}% of traced wall_s")
    for line in runner.problems:
        print(f"  FAILED {line}")


def run_workload(name, args, tmp, expected):
    wl_tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp))
    cmds = workloads.commands(name, wl_tmp, args.seed)
    want = expected.get("workloads", {}).get(name, {}) if args.seed == expected.get("seed") else {}
    runner = Runner(wl_tmp, want)
    runner.warm_up()
    metrics, passes = measure(cmds, args.seconds, args.trace, runner)
    print_summary(name, metrics, passes, runner)
    return metrics, runner


def record(args, tmp):
    """Write expected.json: exit code and digest of every command at --seed."""
    out = {"seed": args.seed, "workloads": {}}
    for name in workloads.WORKLOADS:
        wl_tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp))
        runner = Runner(wl_tmp)
        got = {}
        for label, argv in workloads.commands(name, wl_tmp, args.seed):
            rec = runner.command(label, argv, False)
            if not rec or runner.failed:
                raise SystemExit(f"cannot record: {runner.problems}")
            got[label] = {"exit": rec["exit"], "digest": report_digest(rec["report"])}
        out["workloads"][name] = got
    EXPECTED.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"recorded {EXPECTED}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ffil" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'ffil'} not found; run from a checkout of the repository")
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.record:
            record(args, tmp)
            return
        print("context: " + json.dumps(run_context(args), sort_keys=True))
        expected = json.loads(EXPECTED.read_text())
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            got, runner = run_workload(name, args, tmp, expected)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in got.items()})
            attempted += runner.attempted
            failed += runner.failed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
