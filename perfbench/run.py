"""dlcost benchmark: seeded traces, per-command wall time, set-up, memory,
and per-layer timings.

    python3 perfbench/run.py --workload report-rows --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is run from the
checkout's ``src``.  The benchmark generates the workload's trace from
``--seed``, then runs the workload's ``dlcost`` commands as child
processes, one at a time (a closed loop with one client), in rounds
until ``--seconds`` have passed.  Each round also launches the set-up
probe.  Every output is checked against the benchmark's own oracle.

``--trace 0`` reports the end-to-end metrics: the median wall time of
each command, of their sum, of the set-up probe, and the largest
per-command peak RSS.  ``--trace 1`` alternates untraced rounds with
in-process rounds of ``dlcost.cli.run`` under the tracer and reports the
per-layer metrics; spans go to ``.work/<workload>/spans.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import tracegen  # noqa: E402

TRACE_NAME = "trace.jsonl"
#: The set-up probe: interpreter start, imports, argument parsing and
#: config loading, on the 6-record built-in corpus.
SETUP_ARGV = ("breakdown", "--corpus", "--out", "setup.csv")
SETUP_LAUNCHES_PER_ROUND = 2
#: The speed probe's reference loop: jobs per run, and the loop time that
#: scaled times refer to.
REFERENCE_JOBS = 9000
REFERENCE_S = 0.1
ENTRY_POINT = "import sys; from dlcost.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Command:
    metric: str             # end-to-end metric that reports its wall time
    name: str               # output file stem and display name
    argv: tuple[str, ...]   # subcommand and its own flags
    fmt: str
    expect: Callable        # (jobs, model, base metadata) -> oracle.Expected


@dataclass(frozen=True)
class Workload:
    jobs: int
    unit_strings: bool
    model: oracle.Model
    commands: tuple[Command, ...]


# Each workload is defined by the layer that dominates it; see README.md.
WORKLOADS = {
    # Each job is evaluated once or twice: ingest, row building and
    # emission dominate.
    "report-rows": Workload(20_000, False, oracle.Model(), (
        Command("cmd1_s", "breakdown", ("breakdown",), "csv", oracle.expect_breakdown),
        Command("cmd2_s", "project", ("project", "--target", "allreduce_local"), "json",
                partial(oracle.expect_project, target="allreduce_local")),
        Command("cmd3_s", "aggregate-shares", ("aggregate", "--stat", "shares"), "csv",
                oracle.expect_shares),
    )),
    # Few jobs, many evaluations each: the evaluation kernel dominates.
    "whatif-grid": Workload(3_000, False, oracle.Model(), (
        Command("cmd1_s", "sweep", ("sweep",), "csv", oracle.expect_sweep),
        Command("cmd2_s", "sensitivity", ("sensitivity", "--analysis", "efficiency"), "csv",
                oracle.expect_efficiency),
        Command("cmd3_s", "overlap",
                ("sensitivity", "--analysis", "overlap", "--target", "allreduce_local"), "csv",
                partial(oracle.expect_overlap, target="allreduce_local")),
    )),
    # The report-rows jobs written as unit strings: ingest goes through the
    # unit parsers, evaluation through the ideal-overlap max.
    "unit-strings": Workload(20_000, True, oracle.Model("case-study-testbed", "ideal"), (
        Command("cmd1_s", "validate", ("validate",), "csv", oracle.expect_validate),
        Command("cmd2_s", "share-cdf", ("aggregate", "--stat", "share-cdf", "--level", "cnode"),
                "csv", partial(oracle.expect_share_cdf, level="cnode")),
        Command("cmd3_s", "project-ideal", ("project", "--target", "allreduce_local"), "csv",
                partial(oracle.expect_project, target="allreduce_local")),
    )),
}


def command_argv(cmd: Command, model: oracle.Model) -> list[str]:
    return [*cmd.argv, "--trace", TRACE_NAME, "--hw", model.hw_name,
            "--overlap", model.overlap, "--format", cmd.fmt,
            "--out", f"{cmd.name}.{cmd.fmt}"]


class Launcher:
    """Runs ``dlcost`` commands as children of ``launcher.py``.

    Start it before allocating the inputs: a child's peak RSS from
    ``wait4`` includes the RSS high-water mark of the process that spawned
    it.  (``RUSAGE_CHILDREN`` would be worse still: it keeps the largest
    child's peak, so one JSON ``project`` would show in every later command.)
    """

    def __init__(self, workdir: Path, env: dict) -> None:
        self._stderr = open(workdir / "stderr.log", "wb")
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=workdir,
                                      env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      stderr=self._stderr, text=True)

    def run(self, argv) -> tuple[float, float, int]:
        """One command; (wall seconds, peak RSS MiB, exit code)."""
        self._proc.stdin.write(json.dumps([sys.executable, "-c", ENTRY_POINT, *argv]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._proc.wait()}")
        seconds, rss_kib, code = json.loads(reply)
        return seconds, rss_kib / 1024, code

    def close(self) -> None:
        """End the launcher once its current child has finished."""
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._stderr.close()


class SpeedProbe:
    """The machine's momentary speed, from a fixed loop run between launches.

    On a shared machine the same command's wall time swings by up to 2x
    within a minute as other tenants load the CPU.  Each launch is
    bracketed by runs of a reference loop that does not use the program
    (JSON decoding, dict-heavy float arithmetic, number formatting), and
    its wall time is scaled by ``REFERENCE_S`` over the mean of the two
    reference times: seconds on a machine where the loop takes
    ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self._text = tracegen.numeric_trace(tracegen.make_jobs(0, REFERENCE_JOBS))
        self._model = oracle.Model()
        self.factors: list[float] = []
        self._last = self.reference()

    def reference(self) -> float:
        hw, eff = self._model.hw, self._model.eff
        gc.disable()  # a collection would time the benchmark's own heap
        try:
            start = time.perf_counter()
            jobs = [json.loads(line) for line in self._text.splitlines()]
            ",".join(f"{oracle.step_time(j, hw, eff, 'none')['t_total']:.9g}" for j in jobs)
            return time.perf_counter() - start
        finally:
            gc.enable()

    def scaled(self, wall: float) -> float:
        """``wall`` at reference speed; call right after the launch it timed."""
        after = self.reference()
        factor = REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        self.factors.append(factor)
        return wall * factor


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


class Bench:
    """One workload's trace, commands and checks in a work directory."""

    def __init__(self, name: str, seed: int, n_jobs: int, workdir: Path,
                 launcher: Launcher) -> None:
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.workdir = workdir
        self.launch = launcher.run
        self.chk = oracle.Checker()
        self.digests: dict[str, str] = {}
        jobs = tracegen.make_jobs(seed, n_jobs)
        if self.workload.unit_strings:
            self.jobs, trace = tracegen.unit_string_trace(jobs, seed)
        else:
            self.jobs, trace = jobs, tracegen.numeric_trace(jobs)
        (self.workdir / TRACE_NAME).write_bytes(trace)
        self.trace = trace
        self.argvs = [command_argv(c, self.workload.model) for c in self.workload.commands]

    def output(self, cmd: Command) -> Path:
        return self.workdir / f"{cmd.name}.{cmd.fmt}"

    def setup_probe(self) -> float:
        seconds, _, code = self.launch(SETUP_ARGV)
        self.chk.check(code == 0, f"set-up probe exited {code}")
        return seconds

    def _record(self, cmd: Command, code: int, how: str) -> None:
        digest = sha256_file(self.output(cmd))
        if self.chk.check(code == 0, f"{cmd.name} ({how}) exited {code}"):
            expected = self.digests.setdefault(cmd.name, digest)
            self.chk.check(digest == expected,
                           f"{cmd.name} ({how}): output bytes differ between runs")

    def round(self, probe: SpeedProbe | None = None) -> list[tuple[float, float, float]]:
        """Every command once as a child process:
        [(wall s at reference speed, wall s, peak RSS MiB)]."""
        results = []
        for cmd, argv in zip(self.workload.commands, self.argvs):
            self.output(cmd).unlink(missing_ok=True)
            seconds, rss, code = self.launch(argv)
            self._record(cmd, code, "child")
            scaled = probe.scaled(seconds) if probe else seconds
            results.append((scaled, seconds, rss))
        return results

    def check_outputs(self) -> None:
        """Recompute a seeded sample of every report with the oracle."""
        model = self.workload.model
        meta = oracle.report_metadata(model, TRACE_NAME, self.trace)
        rng = random.Random(f"check:{self.name}:{self.seed}")
        for cmd in self.workload.commands:
            path = self.output(cmd)
            if not self.chk.check(path.is_file(), f"{cmd.name}: no output"):
                continue
            oracle.check_report(path.read_bytes(), cmd.fmt, cmd.expect(self.jobs, model, meta),
                                rng, self.chk, cmd.name)

    def traced_round(self, cli) -> list[spans.Tracer]:
        """Every command once in-process under the tracer."""
        tracers = []
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for cmd, argv in zip(self.workload.commands, self.argvs):
                self.output(cmd).unlink(missing_ok=True)
                tracer = spans.Tracer()
                with spans.patched(tracer):
                    code = tracer.run_command(cli.run, argv)
                self._record(cmd, code, "traced")
                wall = tracer.total_s["cli.run"]
                self.chk.check(abs(sum(tracer.self_s.values()) - wall) <= 1e-9 * wall + 1e-9,
                               f"{cmd.name}: layer self times do not add up to the traced wall")
                tracers.append(tracer)
        finally:
            os.chdir(cwd)
        return tracers


def _median_by_key(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Untraced rounds until ``seconds`` pass; medians of the end-to-end metrics."""
    probe = SpeedProbe()
    setup, rounds = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for _ in range(SETUP_LAUNCHES_PER_ROUND):
            wall = bench.setup_probe()
            setup.append((probe.scaled(wall), wall))
        rounds.append(bench.round(probe))
    commands = bench.workload.commands
    per_round = [{**{c.metric: r[i][0] for i, c in enumerate(commands)},
                  "wall_s": sum(scaled for scaled, _, _ in r)} for r in rounds]
    metrics = _median_by_key(per_round)
    metrics["peak_rss_mb"] = max(statistics.median(r[i][2] for r in rounds)
                                 for i in range(len(commands)))
    metrics["setup_s"] = statistics.median(scaled for scaled, _ in setup)
    raw = ", ".join(f"{c.metric} {statistics.median(r[i][1] for r in rounds):.4g}"
                    for i, c in enumerate(commands))
    lines = [f"{len(rounds)} rounds, {len(setup)} set-up launches; "
             f"speed factor {statistics.median(probe.factors):.3f} "
             f"(range {min(probe.factors):.3f}-{max(probe.factors):.3f})",
             f"unscaled wall medians (s): {raw}, "
             f"setup_s {statistics.median(wall for _, wall in setup):.4g}"]
    lines += [f"{c.metric:<12} {c.name:<17} {' '.join(a)}"
              for c, a in zip(commands, bench.argvs)]
    return metrics, lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[spans.Tracer]) -> dict:
    """Per-layer metrics of one traced round, summed over its commands."""
    def total(attr: str, key: str) -> float:
        return sum(getattr(t, attr).get(key, 0) for t in tracers)

    parse_s = total("total_s", "ingest.parse_trace")
    records = total("counts", "ingest.records")
    bd_calls = total("calls", "engine.breakdown")
    bd_s = total("total_s", "engine.breakdown")
    emit_s = total("total_s", "report.emit")
    rows = total("counts", "report.rows")
    wall = total("total_s", "cli.run")
    return {
        "ingest.parse_s": parse_s,
        "ingest.us_per_record": _ratio(parse_s * 1e6, records),
        "ingest.records": records,
        "ingest.rejected": total("counts", "ingest.rejected"),
        "ingest.digest_s": total("total_s", "ingest.input_digest"),
        "units.calls": total("calls", "units.parse_quantity") + total("calls", "units.parse_count"),
        "units.s": total("self_s", "units"),
        "engine.breakdown_calls": bd_calls,
        "engine.breakdown_s": bd_s,
        "engine.us_per_breakdown": _ratio(bd_s * 1e6, bd_calls),
        "projection.profile_s": total("total_s", "projection.population_speedup_profile"),
        "projection.self_s": total("self_s", "projection"),
        "projection.infeasible": total("counts", "projection.infeasible"),
        "sweep.hardware_sweep_s": total("total_s", "sweep.hardware_sweep"),
        "sweep.cells": total("counts", "sweep.cells"),
        "sweep.efficiency_sensitivity_s": total("total_s", "sweep.efficiency_sensitivity"),
        "sweep.grid_points": total("counts", "sweep.grid_points"),
        "sweep.overlap_comparison_s": total("total_s", "sweep.overlap_comparison"),
        "sweep.self_s": total("self_s", "sweep"),
        "aggregate.s": total("self_s", "aggregate"),
        "aggregate.cdf_points": total("counts", "aggregate.cdf_points"),
        "report.build_s": total("total_s", "report.build_report"),
        "report.emit_s": emit_s,
        "report.rows": rows,
        "report.bytes": total("counts", "report.bytes"),
        "report.us_per_row": _ratio(emit_s * 1e6, rows),
        "cli.self_s": total("self_s", "cli"),
        "trace.wall_s": wall,
        "trace.accounted_ratio": _ratio(sum(sum(t.self_s.values()) for t in tracers), wall),
        "trace.patch_points": statistics.median(t.patched for t in tracers),
    }


def write_spans(bench: Bench, tracers: list[spans.Tracer]) -> Path:
    """Per-command spans, self times and folded calls, for drill-down."""
    commands = []
    for cmd, argv, t in zip(bench.workload.commands, bench.argvs, tracers):
        origin = t.spans[0][1]
        commands.append({
            "command": cmd.name,
            "argv": argv,
            "self_s": dict(sorted(t.self_s.items())),
            "calls": dict(sorted(t.calls.items())),
            "spans": [{"id": i, "name": name, "start_s": start - origin,
                       "end_s": end - origin, "parent": parent}
                      for i, (name, start, end, parent) in enumerate(t.spans)],
        })
    path = bench.workdir / "spans.json"
    path.write_text(json.dumps({"workload": bench.name, "seed": bench.seed,
                                "commands": commands}, indent=1) + "\n")
    return path


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced child rounds with traced in-process rounds."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dlcost.cli as cli

    setup, samples, overheads = [], [], []
    first = None
    n_commands = len(bench.workload.commands)
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        setup += [bench.setup_probe() for _ in range(SETUP_LAUNCHES_PER_ROUND)]
        untraced = sum(wall for _, wall, _ in bench.round())
        tracers = bench.traced_round(cli)
        first = first or tracers
        sample = layer_metrics(tracers)
        samples.append(sample)
        in_process = untraced - n_commands * statistics.median(setup)
        overheads.append(_ratio(sample["trace.wall_s"], in_process))
    metrics = _median_by_key(samples)
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    path = write_spans(bench, first)
    return metrics, [f"{len(samples)} traced rounds; spans in {path.relative_to(HERE.parent)}"]


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="override the workload's job count (self-tests run tiny sizes)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dlcost" / "cli.py").is_file():
        print(f"perfbench: no dlcost sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DLCOST_HW_DIR")}
    env["PYTHONPATH"] = str(SRC)
    launcher = Launcher(workdir, env)
    try:
        bench = Bench(args.workload, args.seed, args.jobs or workload.jobs, workdir, launcher)
        bench.setup_probe()  # untimed: writes the bytecode cache of a fresh checkout
        if args.trace:
            metrics, notes = measure_traced(bench, args.seconds)
            units = _units("per_layer")
        else:
            metrics, notes = measure(bench, args.seconds)
            units = _units("end_to_end")
    finally:
        launcher.close()
    bench.check_outputs()  # every round wrote the same bytes; check the last

    chk = bench.chk
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(bench.jobs)}  "
          f"{'traced' if args.trace else 'untraced'}  {time.perf_counter() - started:.1f} s")
    for line in notes:
        print("  " + line)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")
    print(f"  {'failed_ratio':<32} {_ratio(chk.failed, chk.attempted):>14.6g} "
          f"({chk.failed} of {chk.attempted})")
    for cmd in workload.commands:
        print(f"  sha256 {cmd.name}.{cmd.fmt} {bench.digests.get(cmd.name, 'missing')}")
    for message in chk.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()
              if name in units}
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
