"""querymind benchmark: CLI workloads end to end, layers from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's commands, one fresh CLI process
at a time, pass after pass, until the next pass would end after S seconds
(at least one pass). Every command writes its artifacts into an empty
directory; their digest must equal the first repetition's, and the first
repetition is checked against the pure-Python references in checks.py.

--trace 0 reports the end-to-end metrics: median pass wall time, median
set-up time of a CLI process (spawn until ``querymind.cli`` is imported),
and the median over passes of the largest peak RSS of a process.
--trace 1 alternates untraced and traced passes, reports the per-layer
metrics of the traced passes (medians over passes) and the tracing
overhead, and also runs kernelcheck.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A workload's
rationale is in README.md next to this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import checks
from tracer import FEEDBACK_IDS, MAX_BUCKET_SIZES

HERE = Path(__file__).resolve().parent
STARTED = time.monotonic()
# a run must end within 180 s: commands still running this long after the
# start are killed and count as failed
OPS_DEADLINE_S = 140.0
HELPER_TIMEOUT_S = 20.0

PERM7 = ("--n", "7", "--k", "7", "--repeats", "no", "--feedback", "b")


@dataclass
class Op:
    argv: tuple
    check: Callable[[Path], None]


def _hidden_perm7(rng: random.Random) -> tuple:
    return tuple(rng.sample(range(1, 8), 7))


def workload_ops(name: str, seed: int) -> list[Op]:
    """The commands of one pass. Only play-perm7 draws inputs from the seed."""
    if name == "sweep-perm7":
        return [
            Op(
                ("worst-case", *PERM7, "--strategy", "minimax", "--space-budget", "5040"),
                partial(checks.check_sweep, n=7, k=7, repeats=False, bw=False, strategy="minimax"),
            )
        ]
    if name == "play-perm7":
        rng = random.Random(seed)
        ops = []
        for _ in range(2):
            hidden = _hidden_perm7(rng)
            ops.append(
                Op(
                    ("solve", *PERM7, "--strategy", "minimax", "--hidden", ",".join(map(str, hidden))),
                    partial(checks.check_solve, n=7, k=7, repeats=False, bw=False, hidden=hidden),
                )
            )
        ops.append(
            Op(
                ("adversary-trace", *PERM7),
                partial(checks.check_adversary, n=7, k=7, repeats=False, bw=False),
            )
        )
        return ops
    if name == "search-small":
        return [
            Op(
                ("exact-value", "--n", "3", "--k", "4", "--feedback", "b"),
                partial(checks.check_exact_value, n=3, k=4, repeats=True, bw=False),
            ),
            Op(
                ("nonadaptive-search", "--n", "2", "--k", "5", "--repeats", "yes", "--feedback", "b"),
                partial(checks.check_nonadaptive, n=2, k=5, repeats=True),
            ),
        ]
    if name == "classic-bw":
        ops = []
        for strategy in ("minimax", "first-consistent", "basis"):
            ops.append(
                Op(
                    ("worst-case", "--n", "4", "--k", "6", "--strategy", strategy),
                    partial(
                        checks.check_sweep, n=4, k=6, repeats=True, bw=True, strategy=strategy,
                        # Knuth 1977: minimax on (4,6) black+white needs 5 turns
                        turns_to_win=5 if strategy == "minimax" else None,
                    ),
                )
            )
        ops.append(
            Op(
                ("worst-case", "--n", "5", "--k", "5", "--strategy", "minimax"),
                partial(checks.check_sweep, n=5, k=5, repeats=True, bw=True, strategy="minimax"),
            )
        )
        return ops
    raise KeyError(name)


WORKLOADS = ("sweep-perm7", "play-perm7", "search-small", "classic-bw")


# -- running one CLI process ------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    setup_s: Optional[float]
    maxrss_kb: int
    ok: bool
    trace: Optional[dict] = None


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("QUERYMIND_OUT", None)  # it would override --out
    return env


def spawn(root: Path, work: Path, argv: tuple, out_dir: Path, traced: bool) -> OpResult:
    """Run one CLI command to completion; wall time is spawn to exit."""
    ready_file = work / "ready"
    trace_file = work / "trace.json"
    for path in (ready_file, trace_file):
        path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "launch.py"), str(ready_file),
        str(trace_file) if traced else "-", "--", *argv, "--out", str(out_dir),
    ]
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=out, stderr=err)
        timeout = max(1.0, STARTED + OPS_DEADLINE_S - time.monotonic())
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(ready_file.read_text()) - t0 if ready_file.is_file() else None
    trace = json.loads(trace_file.read_text()) if traced and trace_file.is_file() else None
    ok = proc.returncode == 0 and setup is not None and (trace is not None or not traced)
    if proc.returncode != 0:
        tail = (work / "stderr").read_text(errors="replace")[-2000:]
        print(f"FAIL exit {proc.returncode}: {' '.join(argv)}\n{tail}", file=sys.stderr)
    return OpResult(wall, setup, rusage.ru_maxrss, ok, trace)


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# -- passes -------------------------------------------------------------------------


@dataclass
class Runner:
    root: Path
    work: Path
    ops: list[Op]
    attempted: int = 0
    failed: int = 0
    setups: list[float] = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # op index -> first digest
    checked: set = field(default_factory=set)  # digests that passed their check

    def run_pass(self, traced: bool) -> tuple[float, int, list[dict]]:
        """Run every op once; return (wall_s, largest maxrss_kb, traces)."""
        wall, peak, traces = 0.0, 0, []
        for i, op in enumerate(self.ops):
            out_dir = self.work / f"op{i}"
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            res = spawn(self.root, self.work, op.argv, out_dir, traced)
            self.attempted += 1
            wall += res.wall_s
            peak = max(peak, res.maxrss_kb)
            if res.setup_s is not None and not traced:
                self.setups.append(res.setup_s)
            if res.trace is not None:
                traces.append(res.trace)
            if not res.ok or not self._outputs_ok(i, op, out_dir):
                self.failed += 1
        return wall, peak, traces

    def _outputs_ok(self, i: int, op: Op, out_dir: Path) -> bool:
        d = digest(out_dir)
        first = self.digests.setdefault(i, d)
        if d != first:
            print(f"FAIL artifacts differ from the first repetition: {' '.join(op.argv)}", file=sys.stderr)
            return False
        if d in self.checked:
            return True
        try:
            op.check(out_dir)
        except checks.CheckFailed as exc:
            print(f"FAIL check: {' '.join(op.argv)}: {exc}", file=sys.stderr)
            return False
        self.checked.add(d)
        return True


def loop(seconds: float, run_one: Callable[[], float]) -> None:
    """Call run_one (which returns its duration) until another call would
    end after `seconds`; always at least once."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        durations.append(run_one())
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) > seconds:
            return


# -- per-layer metrics ------------------------------------------------------------


def _span(spans: dict, name: str, key: str) -> float:
    return spans.get(name, {}).get(key, 0)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass: sums over its processes, except
    sizes, which are the largest of any process."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    sizes = ("fid_table.bytes", "max_bucket_sizes.peak_alloc_bytes")
    for trace in traces:
        for name, agg in trace["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for name, value in trace["counts"].items():
            counts[name] = max(counts.get(name, 0), value) if name in sizes else counts.get(name, 0) + value

    fb_s = _span(spans, FEEDBACK_IDS, "total_s")
    mb_s = _span(spans, MAX_BUCKET_SIZES, "total_s")
    next_calls = _span(spans, "strategies.MinimaxStrategy.next_query", "calls")
    minimax_calls = _span(spans, "strategies.minimax_next", "calls")
    return {
        "codespace.enumerate.s": _span(spans, "codespace.CodeSpace.enumerate", "total_s"),
        "codespace.fid_table.build_s": counts.get("fid_table.build_s", 0.0),
        "codespace.fid_table.bytes": counts.get("fid_table.bytes", 0),
        "kernels.feedback_ids.s": fb_s,
        "kernels.feedback_ids.pairs": counts.get("feedback_ids.pairs", 0),
        "kernels.feedback_ids.pairs_per_s": counts.get("feedback_ids.pairs", 0) / fb_s if fb_s else 0.0,
        "kernels.max_bucket_sizes.s": mb_s,
        "kernels.max_bucket_sizes.cells": counts.get("max_bucket_sizes.cells", 0),
        "kernels.max_bucket_sizes.cells_per_s": counts.get("max_bucket_sizes.cells", 0) / mb_s if mb_s else 0.0,
        "kernels.max_bucket_sizes.peak_alloc_mb": counts.get("max_bucket_sizes.peak_alloc_bytes", 0) / 2**20,
        "strategies.minimax_next.self_s": _span(spans, "strategies.minimax_next", "self_s"),
        "strategies.minimax_next.calls": minimax_calls,
        "strategies.minimax.memo_hit_ratio": 1 - minimax_calls / next_calls if next_calls else 0.0,
        "strategies.filter_consistent.s": _span(spans, "strategies.filter_consistent", "total_s"),
        "strategies.filter_consistent.calls": _span(spans, "strategies.filter_consistent", "calls"),
        "strategies.basis.next_query.s": _span(spans, "strategies.BasisStrategy.next_query", "total_s"),
        "strategies.basis.next_query.calls": _span(spans, "strategies.BasisStrategy.next_query", "calls"),
        "engine.worst_case_queries.self_s": _span(spans, "engine.worst_case_queries", "self_s"),
        "engine.exact_game_value.self_s": _span(spans, "engine.exact_game_value", "self_s"),
        "engine.play_honest.self_s": _span(spans, "engine.play_honest", "self_s"),
        "engine.play_adversarial.self_s": _span(spans, "engine.play_adversarial", "self_s"),
        "engine.adversary_feedback.calls": _span(spans, "engine.adversary_feedback", "calls"),
        "nonadaptive.min_nonadaptive_size.self_s": _span(spans, "nonadaptive.min_nonadaptive_size", "self_s"),
        "cli.run.self_s": _span(spans, "cli.run", "self_s"),
    }


# -- helpers run once per benchmark run -----------------------------------------


def helper(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=_child_env(root),
        capture_output=True, text=True, timeout=HELPER_TIMEOUT_S,
    )


def environment(root: Path, seed: int) -> dict:
    proc = helper(root, str(HERE / "envinfo.py"))
    env = json.loads(proc.stdout) if proc.returncode == 0 else {"envinfo_error": proc.stderr[-500:]}
    head = root / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((root / "src" / "querymind").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env.update({"git_commit": commit, "source_sha256": src.hexdigest(), "seed": seed})
    return env


def summarize(name: str, values: list[float], unit: str) -> None:
    print(
        f"{name}: median {statistics.median(values):.4f} {unit}, "
        f"min {min(values):.4f}, max {max(values):.4f}, n={len(values)}; "
        f"samples {[round(v, 4) for v in values]}"
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "querymind" / "cli.py").is_file():
        print("perfbench: no querymind source under ./src; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    work = root / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, spec, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, spec: dict, root: Path, work: Path) -> int:
    print("environment: " + json.dumps(environment(root, args.seed), sort_keys=True))
    # fill the bytecode cache before timing: users run with it warm
    helper(root, "-c", "import querymind.cli")

    runner = Runner(root, work, workload_ops(args.workload, args.seed))
    walls: dict[bool, list[float]] = {False: [], True: []}
    peaks: list[int] = []
    layer_passes: list[dict] = []

    def one_pass(traced: bool) -> float:
        wall, peak, traces = runner.run_pass(traced)
        walls[traced].append(wall)
        if traced:
            layer_passes.append(layer_metrics(traces))
        else:
            peaks.append(peak)
        return wall

    if args.trace:
        loop(args.seconds, lambda: one_pass(False) + one_pass(True))
    else:
        loop(args.seconds, lambda: one_pass(False))

    if args.trace:
        proc = helper(root, str(HERE / "kernelcheck.py"))
        print("kernel check: " + (proc.stdout.strip() or proc.stderr[-500:]))
        runner.attempted += 1
        runner.failed += proc.returncode != 0

    print(f"workload {args.workload}: {runner.attempted} operations, {runner.failed} failed, "
          f"fail_share {runner.failed / runner.attempted:.4f}")
    summarize("wall_s (untraced pass)", walls[False], "s")
    if args.trace:
        summarize("wall_s (traced pass)", walls[True], "s")
        metrics = {
            name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]
        }
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        defs = spec["per_layer"]
    else:
        summarize("setup_s", runner.setups, "s")
        summarize("peak_rss_mb", [p / 1024 for p in peaks], "MB")
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(runner.setups),
            "peak_rss_mb": statistics.median(peaks) / 1024,
        }
        defs = spec["end_to_end"]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in defs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
