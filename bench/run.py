"""Benchmark of the ebwt command line, run in-process through ``ebwt.cli.main``.

    python3 bench/run.py --workload necklaces --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20      # all three workloads

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client in one process, no threads: the next CLI
call starts when the previous one returns.  The seed builds a deck of calls
(see ``workloads``); the run makes one whole pass over the deck and goes on
replaying it in order until ``--seconds`` have passed, and checks every
output against an oracle of its own (see ``checks``).  A wrong output, a traceback or an unexpected exit code
counts as a failed call.

Outside each call's timed interval the harness runs ``gc.collect()``, since
a real CLI call starts from a fresh heap, and the host probe (see
``probe``).  Every time reported is host-normalised: raw seconds times
``probe.NOMINAL_S`` over the mean of the probes just before and just after
the call.  Raw figures are printed and recorded beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each call
untraced and then traced (see ``tracing``) and reports per-layer metrics,
including the tracing overhead.  Human-readable lines go to stdout, the last
line is one JSON object, and a run record is written to
``.bench_runs/<workload>-seed<seed>-trace<t>.json`` (spans, for traced runs,
beside it).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import probe
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_RUNS = 7
TAIL_BEYOND = 10
WINDOW = 9

# The unit of work behind each kind's throughput.
KIND_METRIC = {
    "transform": "transform_letters_per_s",
    "invert": "invert_letters_per_s",
    "least": "debruijn_letters_per_s",
    "gamma": "debruijn_letters_per_s",
    "factors": "factors_letters_per_s",
    "iso": "semigroup_elements_per_s",
    "table": "semigroup_elements_per_s",
}
KIND_UNIT = {name: "elements/s" if "elements" in name else "letters/s"
             for name in KIND_METRIC.values()}

SETUP_CHILD = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
import probe
before = probe.probe_s()
t0 = time.perf_counter()
import ebwt.cli
ebwt.cli._build_parser()
t1 = time.perf_counter()
print(t1 - t0, (before + probe.probe_s()) / 2)
"""


def measure_setup() -> tuple[float, float]:
    """Median (normalised, raw) seconds for a fresh interpreter to import
    ``ebwt.cli`` and build its parser.  One unmeasured start comes first so
    that every measured one finds the bytecode cache written."""
    code = SETUP_CHILD.format(bench=str(Path(__file__).resolve().parent), src=str(SRC))
    normalised, raw = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, probe_s = map(float, done.stdout.split())
        if i:
            raw.append(seconds)
            normalised.append(seconds * probe.NOMINAL_S / probe_s)
    return statistics.median(normalised), statistics.median(raw)


class Harness:
    """Runs deck operations through the CLI, checks them, and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes: list[float] = []
        self.last_probe = self._probe()

    def _probe(self) -> float:
        gc.collect()
        p = probe.probe_s()
        self.probes.append(p)
        return p

    def call(self, op: workloads.Op, tracer: tracing.Tracer | None = None):
        """One timed CLI call between two probes; returns (normalised s,
        raw s, stdout, whether it passed its check)."""
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.install()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except Exception:
                err.write(traceback.format_exc())
            raw = time.perf_counter() - t0
        before, after = self.last_probe, self._probe()
        self.last_probe = after
        factor = probe.NOMINAL_S / ((before + after) / 2)
        if tracer is not None:
            tracer.uninstall(factor)
        self.attempted += 1
        stdout = out.getvalue()
        if rc is None:
            problem = "traceback: " + err.getvalue().strip().splitlines()[-1]
        else:
            problem = op.problem(rc, stdout, err.getvalue())
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{op.kind} {' '.join(op.argv)[:80]!r}: {problem}")
        return raw * factor, raw, stdout, problem is None


def _order_statistic(ordered: list[float], centre: int) -> float:
    """Mean of the WINDOW order statistics centred on index ``centre``.

    Per-call times are a mixture of kinds and sizes with gaps between them,
    and a single order statistic jumps across a gap on a few percent of host
    noise; the mean of its neighbours does not."""
    lo = min(max(centre - WINDOW // 2, 0), max(len(ordered) - WINDOW, 0))
    return statistics.mean(ordered[lo:lo + WINDOW])


def _p50_and_tail(values: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile).  The tail is centred so that every
    call in its window has at least TAIL_BEYOND slower calls beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    centre = max(n - TAIL_BEYOND - 1 - WINDOW // 2, 0)
    return (_order_statistic(ordered, n // 2), _order_statistic(ordered, centre),
            100.0 * (centre + 1) / n)


def _throughputs(rows) -> dict:
    """Work per second for each kind's metric, from (op, seconds) rows."""
    totals = defaultdict(lambda: [0, 0.0])
    for op, seconds in rows:
        if op.kind in KIND_METRIC:
            totals[KIND_METRIC[op.kind]][0] += op.work
            totals[KIND_METRIC[op.kind]][1] += seconds
    return {name: work / seconds for name, (work, seconds) in totals.items()}


def end_to_end(deck, times: list[list[tuple[float, float]]]) -> tuple[dict, str]:
    """Metrics over the deck, each call's time being the median of the
    times it got (once per pass), so the op count is the deck size.  Raw
    counterparts carry a ``raw_`` prefix."""
    values = {}
    for which, label in ((0, ""), (1, "raw_")):
        timed = [statistics.median(t[which] for t in ts) for ts in times]
        work = sum(op.work for op in deck if op.kind != "guard")
        busy = sum(t for op, t in zip(deck, timed) if op.kind != "guard")
        values[label + "items_per_s"] = work / busy
        p50, tail, pct = _p50_and_tail(timed)
        values[label + "op_p50_ms"] = 1000 * p50
        values[label + "op_tail_ms"] = 1000 * tail
        for name, value in _throughputs(zip(deck, timed)).items():
            values[label + name] = value
    note = (f"op count {len(deck)}, each the median of its passes; op_p50_ms and "
            f"op_tail_ms (p{pct:.0f}, at least {TAIL_BEYOND} calls beyond it) are means "
            f"of {WINDOW} neighbouring order statistics")
    return values, note


class TracedRun:
    """Runs each call a second time under the tracer and keeps what the
    per-layer metrics need beyond the tracer's own spans and counts."""

    SELF_TIMES = (
        ("cli.self_s", "cli.main"),
        ("words.lyndon_representative_s", "words.lyndon_representative"),
        ("bwt.transform_s", "bwt.transform"),
        ("bwt.from_necklaces_s", "bwt.from_necklaces"),
        ("bwt.inverse_transform_s", "bwt.inverse_transform"),
        ("bwt.standard_permutation_s", "bwt.standard_permutation"),
        ("debruijn.least_s", "debruijn.least"),
        ("debruijn.gamma_check_s", "debruijn.gamma_check"),
        ("debruijn.self_check_s", "debruijn.self_check"),
        ("semigroups.letter_actions_s", "semigroups.letter_actions"),
        ("semigroups.action_closure_s", "semigroups.action_closure"),
        ("semigroups.syntactic_s", "semigroups.syntactic"),
        ("semigroups.signature_s", "semigroups.signature"),
        ("semigroups.table_s", "semigroups.table"),
        ("factors.distinct_factors_s", "factors.distinct_factors"),
    )
    COUNTS = ("words.word_allocs", "words.codes_validated", "words.omega_compare_calls",
              "bwt.transform_rotations", "bwt.cycles", "semigroups.compose_calls",
              "semigroups.table_cells")

    def __init__(self, cli):
        self.cli = cli
        self.tracer = tracing.Tracer()
        self.calls = 0
        self.untraced: list[tuple[workloads.Op, float]] = []
        self.traced_s = 0.0
        self.debruijn_s = 0.0
        self.output_bytes = 0
        self.refusals = 0
        self.least_s = 0.0
        self.oracle_s = 0.0

    def replay(self, harness: Harness, op: workloads.Op, untraced_s: float) -> None:
        self.untraced.append((op, untraced_s))
        self.calls += 1
        self.tracer.op_id = self.calls
        seconds, _, stdout, ok = harness.call(op, self.tracer)
        self.traced_s += seconds
        self.output_bytes += len(stdout.encode())
        self.refusals += op.kind == "guard" and ok
        if op.kind in ("least", "gamma"):
            self.debruijn_s += seconds
        if op.kind == "least":
            # Both untraced and back to back, so host speed cancels in the ratio.
            from ebwt.debruijn import lyndon_concatenation_oracle
            self.least_s += _timed(self.cli.least_debruijn_word, op)
            self.oracle_s += _timed(lyndon_concatenation_oracle, op)

    def metrics(self) -> dict:
        tracer, calls = self.tracer, self.calls
        s, c = tracer.self_s, tracer.counts
        guard_s = [t for op, t in self.untraced if op.kind == "guard"]
        closures, dfas = c["semigroups.closures"], c["semigroups.dfas"]
        values = {name: s[span] / calls for name, span in self.SELF_TIMES}
        values.update({name: c[name] / calls for name in self.COUNTS})
        values.update({
            "cli.output_bytes": self.output_bytes / calls,
            "words.lyndon_representative_calls": sum(
                1 for span in tracer.spans if span[3] == "words.lyndon_representative") / calls,
            "bwt.longest_cycle": tracer.maxima["bwt.longest_cycle"],
            "debruijn.self_check_share":
                tracer.inclusive_s["debruijn.self_check"] / self.debruijn_s if self.debruijn_s else 0.0,
            "debruijn.oracle_ratio": self.least_s / self.oracle_s if self.oracle_s else 0.0,
            "semigroups.closure_order":
                c["semigroups.closure_elements"] / closures if closures else 0.0,
            "semigroups.dfa_states": c["semigroups.dfa_state_total"] / dfas if dfas else 0.0,
            "guard.refusals": self.refusals / calls,
            "guard.refusal_ms": 1000 * statistics.mean(guard_s) if guard_s else 0.0,
            "trace.overhead_frac": self.traced_s / sum(t for _, t in self.untraced) - 1,
        })
        values.update({name: 0.0 for name in KIND_UNIT})
        values.update(_throughputs(self.untraced))
        return values


def _timed(fn, op) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn(op.info["k"], op.info["n"])
    return time.perf_counter() - t0


def layer_units() -> dict:
    units = {name: "s/op" for name, _ in TracedRun.SELF_TIMES}
    units.update({name: "1/op" for name in TracedRun.COUNTS})
    units.update({
        "cli.output_bytes": "B/op", "words.lyndon_representative_calls": "1/op",
        "bwt.longest_cycle": "letters", "debruijn.self_check_share": "ratio",
        "debruijn.oracle_ratio": "ratio", "semigroups.closure_order": "elements",
        "semigroups.dfa_states": "states", "guard.refusals": "1/op", "guard.refusal_ms": "ms",
        "trace.overhead_frac": "ratio", **KIND_UNIT,
    })
    return units


END_TO_END_UNITS = {"items_per_s": "items/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    """Each workload in a fresh interpreter of its own, so that peak memory
    and heap state are per workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.DECKS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{name}": metric
                                  for name, metric in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.DECKS) + ["all"],
                        help="one workload, or all of them in turn (the default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    began = time.perf_counter()

    if not (SRC / "ebwt" / "cli.py").is_file():
        print(f"error: no ebwt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ebwt.cli as cli

    setup = None if args.trace else measure_setup()
    deck = workloads.build(args.workload, args.seed)
    harness = Harness(cli)
    traced = TracedRun(cli) if args.trace else None
    times: list[list[tuple[float, float]]] = [[] for _ in deck]
    calls = 0
    start = time.perf_counter()
    while calls < len(deck) or time.perf_counter() - start < args.seconds:
        j = calls % len(deck)
        calls += 1
        seconds, raw, _, _ = harness.call(deck[j])
        times[j].append((seconds, raw))
        if traced is not None:
            traced.replay(harness, deck[j], seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(), "deck_ops": len(deck),
        "passes": calls / len(deck), "probe_nominal_s": probe.NOMINAL_S,
        "probe_measured_s": {"median": statistics.median(harness.probes),
                             "min": min(harness.probes), "max": max(harness.probes)},
        "attempted": harness.attempted, "failed": harness.failed,
        "problems": harness.problems[:50],
        "calls": [{"kind": op.kind, "work": op.work, "norm_s": [t[0] for t in ts],
                   "raw_s": [t[1] for t in ts]} for op, ts in zip(deck, times)],
    }
    print(f"{args.workload} seed {args.seed}: {len(deck)} calls per deck, "
          f"{record['passes']:.2f} passes, probe median "
          f"{statistics.median(harness.probes) * 1000:.2f} ms (nominal "
          f"{probe.NOMINAL_S * 1000:.2f} ms), python {record['python']}, "
          f"nproc {record['nproc']}, git {record['git_sha'][:12]}")
    print(f"failed_frac {harness.failed / harness.attempted:.6g} ratio "
          f"({harness.failed} of {harness.attempted} calls)")
    for problem in harness.problems[:10]:
        print("  failed:", problem)

    if traced is None:
        values, note = end_to_end(deck, times)
        values["setup_s"], values["raw_setup_s"] = setup
        values["peak_rss_mb"] = rss_mb
        print(note)
        for name, unit in {**END_TO_END_UNITS, **KIND_UNIT}.items():
            if name in values:
                raw = values.get("raw_" + name)
                print(f"{name} {values[name]:.6g} {unit}" + (f" (raw {raw:.6g})" if raw else ""))
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}
    else:
        values = traced.metrics()
        units = layer_units()
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
        reported = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    record["metrics"] = values
    record["elapsed_s"] = time.perf_counter() - began
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced is not None:
        traced.tracer.write_spans(OUT / f"{stem}-spans.jsonl.gz")
    print(json.dumps({"correct": harness.failed == 0, "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
