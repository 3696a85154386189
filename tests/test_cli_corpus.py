"""The CLI contract, pinned: every call recorded in `cli_corpus.jsonl` gives
the same exit code, stdout and stderr when it is replayed through
`cli.main`.  `scripts/cli_corpus.py` writes the file; a change that alters
a recorded byte regenerates it, and the diff shows what changed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASES = [json.loads(line)
         for line in (ROOT / "tests" / "cli_corpus.jsonl").read_text(encoding="utf-8").splitlines()]

_spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "scripts" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)


def test_replay():
    replayed = [(case["argv"], cli_corpus.call(case["argv"])) for case in CASES]
    recorded = [(case["argv"], (case["exit"], case["stdout"], case["stderr"])) for case in CASES]
    assert replayed == recorded


def test_corpus_is_what_the_script_draws():
    # a change to the script's grammar or seed shows here, without a CLI call
    assert [case["argv"] for case in CASES] == cli_corpus.corpus_argv()


def test_covers_every_subcommand_outcome_and_format():
    seen = {(case["argv"][0], case["exit"], "--json" in case["argv"]) for case in CASES}
    for command in ("transform", "invert", "debruijn", "semigroup", "factors"):
        for code in (0, 2, 3):
            assert {(command, code, False), (command, code, True)} <= seen


@pytest.mark.parametrize("argv, shown", cli_corpus.readme_examples(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_readme_examples_are_recorded_as_shown(argv, shown):
    recorded = [case for case in CASES if case["argv"] == argv]
    assert [(case["exit"], case["stdout"]) for case in recorded] == [(0, shown)]
