#!/usr/bin/env python3
"""Two source trees on one benchmark deck, interleaved call by call.

    python scripts/ab_trees.py PARENT_SRC CHANGE_SRC --workload W --seed S --reps R

PARENT_SRC and CHANGE_SRC are `src` directories, each holding an `ebwt`
package.  Both are imported into one process: the parent as `ebwt`, the
change under the package name `ebwt_change`.  The deck that
`bench/workloads.py` builds for W and S is run R times, and each call runs
on both trees back to back, which of them goes first alternating from call
to call, so that the host's drifts in speed fall on both alike.  Every call
goes through the `Harness` of `bench/run.py`: the same garbage collection,
host probe and normalisation, and the same output checks.

The script fails when a call's exit code, stdout or stderr differs between
the two trees, or when a check fails.  Else it prints `items_per_s`,
`op_p50_ms` and `op_tail_ms` of each tree, as `bench/run.py` computes them
(each call's time is the median of its R runs), and the change's value as a
ratio of the parent's.  Start-up and peak memory are those of a fresh
process, which a shared one cannot measure; `bench/run.py` reports them.

It imports from `bench/` and writes nothing.  Given one tree twice, it
measures how far two runs of the same code stand apart.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
METRICS = (("items_per_s", "items/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))


class Tree:
    """The `cli` module of one tree, as a `Harness` calls it, keeping the
    exit code and stderr of its last call."""

    def __init__(self, cli):
        self.cli = cli
        self.last = None

    def main(self, argv):
        self.last = None
        rc = self.cli.main(argv)
        self.last = rc, sys.stderr.getvalue()  # stderr is the Harness's buffer here
        return rc


def import_tree(src: Path, name: str):
    """The `cli` module of the `ebwt` package under `src`, imported as the
    package `name`; its modules import one another relatively."""
    package = src / "ebwt"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "ebwt" / "cli.py").is_file():
            parser.error(f"no ebwt package under {src}")
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    trees = [Tree(import_tree(args.parent.resolve(), "ebwt")),
             Tree(import_tree(args.change.resolve(), "ebwt_change"))]
    deck = workloads.build(args.workload, args.seed)
    harness = run.Harness(None)
    times = [[[] for _ in deck], [[] for _ in deck]]
    for rep in range(args.reps):
        for j, op in enumerate(deck):
            results = [None, None]
            for side in ((0, 1) if (rep + j) % 2 == 0 else (1, 0)):
                harness.cli = trees[side]
                seconds, raw, stdout, _ = harness.call(op)
                times[side][j].append((seconds, raw))
                results[side] = trees[side].last, stdout
            if results[0] != results[1]:
                print(f"error: the trees differ on {' '.join(op.argv)[:200]!r}:\n"
                      f"  parent {results[0]!r:.300}\n  change {results[1]!r:.300}",
                      file=sys.stderr)
                return 1
    if harness.failed:
        for problem in harness.problems[:10]:
            print("failed:", problem, file=sys.stderr)
        return 1

    values = [run.end_to_end(deck, side_times)[0] for side_times in times]
    print(f"{args.workload} seed {args.seed}: {len(deck)} calls, {args.reps} reps, "
          f"identical exit codes and output on both trees")
    for name, unit in METRICS:
        parent, change = values[0][name], values[1][name]
        print(f"{name} parent {parent:.6g} change {change:.6g} {unit} "
              f"change/parent {change / parent:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
