"""Spans and counts around the public functions of each ebwt module.

Wrappers are installed from the benchmark, at the name each caller looks up
(``ebwt.cli.transform``, ``ebwt.debruijn.inverse_transform``, ...), and
removed again after every traced call, so untraced calls run the program
exactly as shipped.  Spans stay in memory as (id, parent id, op id, name,
start, end); self time is a span's duration minus its children's.  Calls
made millions of times per operation (``omega_compare``, ``Word``
construction, ``compose``) get counts only.
"""

from __future__ import annotations

import gzip
import itertools
import json
import time
from collections import Counter, defaultdict
from functools import cached_property


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.op_id = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op_start = 0

    def span(self, name, hook=None):
        """Wrapper factory: record a span per call, then run ``hook``."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, self.op_id, name, t0, t1))
                if hook is not None:
                    hook(self, args, result)
                return result
            return wrapper
        return make

    def count(self, name, hook=None):
        """Wrapper factory: count calls, then run ``hook``; no span."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        for owner, attr, make in _points(self):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            elif isinstance(raw, cached_property):
                new = cached_property(make(raw.func))
                new.__set_name__(owner, attr)
            else:
                new = make(raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        self._op_start = len(self.spans)

    def uninstall(self, factor: float) -> None:
        """Remove every wrapper and book the op's self and inclusive times,
        scaled by the host-normalisation ``factor``."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        spans = self.spans[self._op_start:]
        children = defaultdict(float)
        for _, parent, _, _, t0, t1 in spans:
            if parent != -1:
                children[parent] += t1 - t0
        for sid, _, _, name, t0, t1 in spans:
            self.inclusive_s[name] += (t1 - t0) * factor
            self.self_s[name] += (t1 - t0 - children[sid]) * factor

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('["id", "parent", "op", "name", "start_s", "end_s"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _codes(tracer, args, result):
    tracer.counts["words.codes_validated"] += len(args[0].codes)


def _cycles(tracer, args, result):
    tracer.counts["bwt.cycles"] += len(result)
    tracer.maxima["bwt.longest_cycle"] = max(
        tracer.maxima["bwt.longest_cycle"], max(map(len, result), default=0)
    )


def _rotations(tracer, args, result):
    tracer.counts["bwt.transform_rotations"] += args[0].total_length


def _closure(tracer, args, result):
    tracer.counts["semigroups.closures"] += 1
    tracer.counts["semigroups.closure_elements"] += result.order


def _dfa(tracer, args, result):
    tracer.counts["semigroups.dfa_state_total"] += result[0]


def _cells(tracer, args, result):
    tracer.counts["semigroups.table_cells"] += len(result) ** 2


def _points(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced name."""
    from ebwt import bwt, cli, debruijn, factors, semigroups, words

    span, count = tracer.span, tracer.count
    lyndon = span("words.lyndon_representative")
    inverse = span("bwt.inverse_transform")
    least = span("debruijn.least")
    signature = span("semigroups.signature")
    compose = count("semigroups.compose_calls")
    return [
        (cli, "main", span("cli.main")),
        (cli, "lyndon_representative", lyndon),
        (bwt, "lyndon_representative", lyndon),
        (semigroups, "lyndon_representative", lyndon),
        (words.Word, "__post_init__", count("words.word_allocs", _codes)),
        (bwt, "omega_compare", count("words.omega_compare_calls")),
        (cli, "transform", span("bwt.transform", _rotations)),
        (cli, "inverse_transform", inverse),
        (debruijn, "inverse_transform", inverse),
        (bwt.NecklaceMultiset, "from_necklaces", span("bwt.from_necklaces")),
        (bwt, "standard_permutation", span("bwt.standard_permutation")),
        (bwt.StandardPermutation, "cycles", count("bwt.cycle_reads", _cycles)),
        (cli, "least_debruijn_word", least),
        (factors, "least_debruijn_word", least),
        (debruijn, "first_bad_block", span("debruijn.gamma_check")),
        (debruijn, "is_debruijn_set", span("debruijn.self_check")),
        (cli, "distinct_factors", span("factors.distinct_factors")),
        (cli, "letter_actions", span("semigroups.letter_actions")),
        (cli, "generate_closure", span("semigroups.action_closure", _closure)),
        (cli, "syntactic_semigroup", span("semigroups.syntactic", _closure)),
        (semigroups, "_minimal_dfa", count("semigroups.dfas", _dfa)),
        (cli, "letter_induced_isomorphic", signature),
        (semigroups, "cayley_signature", signature),
        (semigroups.FiniteSemigroup, "table", span("semigroups.table", _cells)),
        (semigroups.PartialInjection, "compose", compose),
        (semigroups.Transformation, "compose", compose),
    ]
