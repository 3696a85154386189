import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ebwt
from ebwt import bwt, cli, debruijn, semigroups, words
from ebwt.cli import main
from ebwt.errors import ResourceLimitError

from ebwt.bwt import NecklaceMultiset, transform
from ebwt.debruijn import lyndon_concatenation_oracle
from ebwt.words import Alphabet, Necklace, Word, lyndon_representative

from helpers import (AB, lcm, naive_bwt, naive_cycles, naive_least_rotation, naive_primitive,
                     naive_root, naive_standard_permutation, necklace_closure_order, prefix_bwt,
                     primitive_texts)
from test_cli_fuzz import ERROR_LINE, call


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class ChunkedStdin(io.BytesIO):
    """A stdin of the UTF-8 bytes of a text, its own `buffer`, that refuses
    to hand over more than one input chunk at a time."""

    def __init__(self, text: str):
        super().__init__(text.encode())

    @property
    def buffer(self):
        return self

    def read(self, size=-1):
        if size is None or not 0 <= size <= cli.INPUT_CHUNK:
            raise AssertionError(f"read({size}) asks for more than one chunk")
        return super().read(size)


class EndlessStdin:
    """A stdin, its own `buffer`, that never ends: `first`, then blocks of
    `then` repeated, for as many reads as are asked, which it counts."""

    def __init__(self, first: bytes, then: bytes):
        self.first, self.then, self.reads = first, then, 0

    @property
    def buffer(self):
        return self

    def read(self, size):
        self.reads += 1
        return self.first if self.reads == 1 else self.then * (size // len(self.then))


# The arguments of a transform or invert that reads stdin.
STDIN = argparse.Namespace(text=None, file=None)


class TestTransform:
    def test_golden_multiset(self, capsys):
        code, out, _ = run(capsys, ["transform", "aab\nab\nabb"])
        assert code == 0
        assert out == "babbaaba\n"

    def test_empty_input(self, capsys):
        code, out, _ = run(capsys, ["transform", ""])
        assert code == 0
        assert out == "\n"

    def test_multiplicity(self, capsys):
        code, out, _ = run(capsys, ["transform", "ab x2"])
        assert code == 0
        assert out == "bbaa\n"

    @pytest.mark.parametrize("digits", ["\u0661\u0662", "\u00b2", "\uff11\uff12", "\u0967"])
    def test_multiplicity_takes_ascii_digits_only(self, capsys, digits):
        # str.isdigit accepts these, and int reads some of them
        assert run(capsys, ["transform", f"ab x{digits}"]) == (
            2, "", f"error: line 1: expected 'word' or 'word xN', got 'ab x{digits}'\n")

    def test_repeated_lines_merge(self, capsys):
        code, out, _ = run(capsys, ["transform", "ab x2\naab\nab", "--json"])
        assert code == 0
        code, merged, _ = run(capsys, ["transform", "aab\nab x3", "--json"])
        assert code == 0
        assert out == merged == '{"word": "babbbaaaa"}\n'
        code, out, _ = run(capsys, ["transform", "ba\nab x2", "--canonicalize"])
        assert code == 0
        assert out == "bbbaaa\n"

    def test_canonicalize_gives_the_transform_of_from_necklaces(self):
        text = "ba\nab x2\nbaa x3\naab"
        out = cli._transform_entries(cli._multiset_entries(iter([text]), 100), None, True)
        texts = ["ba", "ab", "ab", "baa", "baa", "baa", "aab"]
        m = NecklaceMultiset.from_necklaces(AB, [lyndon_representative(AB.word(t)) for t in texts])
        assert [(str(n), mult) for n, mult in m.entries] == [("aab", 4), ("ab", 3)]
        assert out == str(transform(m)) == "bbbbaaaabbbaaaaaaa"

    @given(st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.lists(
        st.tuples(st.text(letters, min_size=1, max_size=9).filter(naive_primitive),
                  st.integers(1, 4)), min_size=1, max_size=12)))
    def test_canonicalized_entries_give_the_transform_of_from_necklaces(self, items):
        # rotations of one necklace on different lines are ranked apart,
        # and give what their merged multiset gives
        text = "\n".join(f"{raw} x{mult}" for raw, mult in items)
        out = cli._transform_entries(cli._multiset_entries(iter([text]), 10**4), None, True)
        alphabet = Alphabet("".join(sorted(set("".join(raw for raw, _ in items)))))
        expanded = [lyndon_representative(alphabet.word(raw))
                    for raw, mult in items for _ in range(mult)]
        assert out == str(transform(NecklaceMultiset.from_necklaces(alphabet, expanded)))

    def test_distinct_entries_are_neither_parsed_nor_canonicalized(self, capsys, monkeypatch):
        # the entries go to the ranking as text: no per-entry least-rotation
        # scan, parse or render, with and without --canonicalize
        rng = random.Random(7)
        entries = sorted({naive_least_rotation(text) for text in (
            "".join(rng.choices("abc", k=rng.randint(2, 12))) for _ in range(400))
            if naive_primitive(text)})
        text = "\n".join(entries)
        rotated = "\n".join(raw[1:] + raw[:1] for raw in entries)
        expected = naive_bwt([(raw, 1) for raw in entries]) + "\n"
        monkeypatch.setattr(words, "least_rotation_start",
                            lambda codes: pytest.fail("least_rotation_start"))
        for name in ("word", "render"):
            monkeypatch.setattr(Alphabet, name, lambda *args, name=name: pytest.fail(name))
        assert run(capsys, ["transform", text]) == (0, expected, "")
        assert run(capsys, ["transform", rotated, "--canonicalize"]) == (0, expected, "")

    def test_output_guard_edge(self, capsys):
        code, out, _ = run(capsys, ["transform", "ab x3", "--guard-cells", "6"])
        assert code == 0
        assert out == "bbbaaa\n"
        code, out, err = run(capsys, ["transform", "ab x3", "--guard-cells", "5"])
        assert code == 3
        assert out == ""
        assert err == "error: transform output needs 6 letters, over the guard 5\n"

    def test_output_guard_refuses_before_ranking(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("transform ran past its guard")
        monkeypatch.setattr(cli, "transform_text", fail)
        code, out, err = run(capsys, ["transform", "ab x1000000000"])
        assert code == 3
        assert out == ""
        assert "2000000000 letters" in err

    def test_output_guard_refuses_before_the_entry_checks(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("an entry was checked past the guard")
        monkeypatch.setattr(cli, "_checked_prefix", fail)
        code, out, err = run(capsys, ["transform", "aab\nba x3\nab", "--canonicalize",
                                      "--guard-cells", "10"])
        assert code == 3
        assert out == ""
        assert err == "error: transform output needs 11 letters, over the guard 10\n"

    def test_guard_is_judged_before_the_entries(self, capsys):
        # 'aa' is not primitive, but the guard on its 20 letters speaks first
        code, out, err = run(capsys, ["transform", "aa x10", "--guard-cells", "5"])
        assert code == 3
        assert out == ""
        assert err == "error: transform output needs 20 letters, over the guard 5\n"
        code, out, err = run(capsys, ["transform", "aa x10", "--guard-cells", "20"])
        assert code == 2
        assert err == "error: entry 'aa' is not primitive\n"

    def test_output_guard_refuses_while_reading(self, capsys, monkeypatch):
        # the line that passes the guard is the last one read: a malformed
        # line after it is never reached, so the call exits 3, not 2
        code, out, err = run(capsys, ["transform", "ab x3\nab x", "--guard-cells", "5"])
        assert code == 3
        assert out == ""
        assert err == "error: transform output needs 6 letters, over the guard 5\n"

        class ReadsThenFail(ChunkedStdin):
            def read(self, size=-1):
                data = super().read(size)
                if not data:
                    raise AssertionError("transform read past the line that passed its guard")
                return data
        monkeypatch.setattr(cli, "INPUT_CHUNK", 1)  # one byte per read
        monkeypatch.setattr(sys, "stdin", ReadsThenFail("\n  \nab\naab x2\n"))
        code, out, err = run(capsys, ["transform", "--guard-cells", "7"])
        assert code == 3
        assert err == "error: transform output needs 8 letters, over the guard 7\n"

    def test_output_guard_bounds_reading(self, capsys, monkeypatch):
        text = "ab\n" * 10**6
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(text))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["transform", "--guard-cells", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of INPUT_CHUNK characters in lines, about 1.6 MB; the
        # whole text split into lines would be over 50 MB
        assert peak < len(text)
        assert code == 3
        assert err == "error: transform output needs 102 letters, over the guard 100\n"

    @given(st.text(alphabet="ab x12\n\r\t\x0c\x1c", max_size=40),
           st.sampled_from([1, 2, 3, 1 << 16]))
    @settings(deadline=None)
    def test_line_format_parses_like_the_whole_text(self, text, chunk):
        # the reference splits the whole text, numbering from its first line,
        # blank or not
        expected: Counter = Counter()
        for lineno, line in enumerate(text.splitlines(), start=1):
            parts = line.split()
            if len(parts) == 2 and parts[1].startswith("x") and parts[1][1:].isdigit() \
                    and int(parts[1][1:]) > 0:
                expected[parts[0]] += int(parts[1][1:])
            elif len(parts) == 1:
                expected[parts[0]] += 1
            elif parts:
                expected = lineno
                break
        try:
            # lines and "\r\n" straddle reads
            with mock.patch.object(cli, "INPUT_CHUNK", chunk), \
                    mock.patch.object(sys, "stdin", ChunkedStdin(text)):
                got = cli._multiset_entries(cli._chunks(STDIN), guard=10**6)
        except cli.CLIError as e:
            got = int(str(e).split(":")[0].removeprefix("line "))
        assert got == expected

    def test_long_line_refused_in_bounded_memory(self, capsys, monkeypatch):
        # one line of 2 million letters under a guard of 1000 is refused
        # before the line ends, holding at most the guard and a chunk of it
        monkeypatch.setattr(sys, "stdin", ChunkedStdin("ab\n" + "ab" * 10**6 + "\nab\n"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["transform", "--guard-cells", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cli.INPUT_CHUNK
        assert code == 3
        assert out == ""
        longest = 1000 + cli.INPUT_CHUNK
        assert err == (f"error: transform input line 2 has more than {longest} characters, "
                       f"over the guard 1000\n")

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    @pytest.mark.parametrize("end", ["", "\n", "\r\n", "\u2028"])
    def test_line_length_bound(self, capsys, monkeypatch, chunk, end):
        # a line of guard + INPUT_CHUNK characters before its line break is
        # parsed as before; one character more is refused, wherever the
        # reads fall
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        longest = 20 + chunk
        for padding, expected in ((longest - 5, (0, "bbbaaa\n", "")),
                                  (longest - 4, (3, "", f"error: transform input line 2 has "
                                                       f"more than {longest} characters, over "
                                                       f"the guard 20\n"))):
            text = "ab\nab x2" + " " * padding + end
            assert run(capsys, ["transform", text, "--guard-cells", "20"]) == expected

    def test_json_refused_while_it_is_read(self, capsys, monkeypatch):
        # a document of more than guard + INPUT_CHUNK characters is refused
        # before it is parsed, holding at most that much of it
        def fail(*args):
            raise AssertionError("JSON parsed past its bound")
        monkeypatch.setattr(cli, "_multiset_entries_from_json", fail)
        document = '{"necklaces": [{"lyndon": "' + "a" * 2 * 10**6 + 'b"}]}'
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(" \n" + document + "\n"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["transform", "--guard-cells", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cli.INPUT_CHUNK
        assert code == 3
        assert out == ""
        longest = 1000 + cli.INPUT_CHUNK
        assert err == (f"error: transform JSON input has more than {longest} characters, "
                       f"over the {longest} that the guard 1000 allows\n")

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_json_length_bound(self, capsys, monkeypatch, tmp_path, chunk):
        # a document of guard + INPUT_CHUNK characters is parsed and judged by
        # its output; one character more is refused by its length, counted
        # exactly when it comes whole as argv
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        longest = 100 + chunk
        bare = '{"necklaces": [{"lyndon": "aab"}, {"lyndon": "ab"}, {"lyndon": "abb"}]}'
        path = tmp_path / "multiset.json"
        refused = (f"error: transform JSON input has {{}} characters, over the {longest} "
                   f"that the guard 100 allows\n")
        for padding in (-1, 0, 1):
            document = bare[:-1] + " " * (longest + padding - len(bare)) + bare[-1]
            path.write_text("\n " + document + " \n", encoding="utf-8")
            for source, count in (([document], longest + 1),
                                  (["--file", str(path)], f"more than {longest}")):
                expected = ((3, "", refused.format(count)) if padding > 0
                            else (0, "babbaaba\n", ""))
                assert run(capsys, ["transform", *source, "--guard-cells", "100"]) == expected

    @pytest.mark.parametrize("source", ["argv", "--file"])
    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path, source):
        document = '{"necklaces": ' + "[" * 10**5 + "]" * 10**5 + "}"
        path = tmp_path / "deep.json"
        path.write_text(document, encoding="utf-8")
        argv = [document] if source == "argv" else ["--file", str(path)]
        assert run(capsys, ["transform", *argv]) == (
            2, "", "error: JSON multiset is nested too deeply to parse\n")

    @pytest.mark.parametrize("lyndon", [5, None, ["ab"], ""],
                             ids=["number", "null", "list", "empty"])
    def test_json_lyndon_must_be_a_nonempty_string(self, capsys, lyndon):
        item = {"lyndon": lyndon}
        for necklaces in ([item], [{"lyndon": "ab"}, item]):
            code, out, err = run(capsys, ["transform", json.dumps({"necklaces": necklaces})])
            assert code == 2
            assert out == ""
            assert err == f"error: JSON necklace entry needs a 'lyndon' field: {item!r}\n"

    @pytest.mark.parametrize("payload, message", [
        ({"necklaces": [{"lyndon": "ab", "mult": 3}]},
         "JSON necklace entry 'ab' has the unknown key 'mult'"),
        ({"necklaces": [{"lyndon": "ab"}, {"lyndon": "b", "multiplicity": 2, "x": 0}]},
         "JSON necklace entry 'b' has the unknown key 'x'"),
        ({"necklaces": [{"lyndon": "ab"}], "version": 1},
         "JSON multiset has the unknown key 'version'"),
    ])
    def test_json_unknown_key_refused(self, capsys, payload, message):
        # a key the format does not read is refused, not dropped: "mult"
        # once gave the transform of multiplicity 1
        assert run(capsys, ["transform", json.dumps(payload)]) == (2, "", f"error: {message}\n")

    def test_json_boolean_multiplicity_rejected(self, capsys):
        payload = json.dumps({"necklaces": [{"lyndon": "ab", "multiplicity": True}]})
        code, out, err = run(capsys, ["transform", payload])
        assert code == 2
        assert out == ""
        assert "multiplicity" in err

    def test_json_input(self, capsys):
        payload = json.dumps({"necklaces": [
            {"lyndon": "aab", "multiplicity": 1},
            {"lyndon": "ab", "multiplicity": 1},
            {"lyndon": "abb", "multiplicity": 1},
        ]})
        code, out, _ = run(capsys, ["transform", payload])
        assert code == 0
        assert out == "babbaaba\n"

    @pytest.fixture(params=["limited", "unlimited"])
    def int_digits(self, request):
        """CPython's limit on int <-> str conversion as it stands, then off:
        the CLI's refusals must not rest on it."""
        limit = sys.get_int_max_str_digits()
        if request.param == "unlimited":
            sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("digits", ["9" * 4301, "1" + "0" * 4300, "0" * 9 + "7" * 5000])
    def test_overlong_multiplicity_is_over_the_guard(self, capsys, int_digits, digits):
        error = ("error: transform multiplicity has more than 4300 digits, "
                 "over the guard 16777216\n")
        number = digits.lstrip("0")  # JSON has no leading zeros
        for text in (f"ab x{digits}", f"aab\nab x{digits}\nabb x2",
                     '{"necklaces": [{"lyndon": "ab", "multiplicity": %s}]}' % number,
                     '{"necklaces": [], "x": -%s}' % number):
            assert run(capsys, ["transform", text]) == (3, "", error)
            assert run(capsys, ["transform", text, "--json"]) == (3, "", error)

    def test_multiplicity_that_converts_keeps_its_message(self, capsys, int_digits):
        # leading zeros aside, 4300 digits or fewer are read, and the output
        # they need is counted; a count too long to print is bounded
        assert run(capsys, ["transform", "ab x" + "0" * 5000 + "3"]) == (0, "bbbaaa\n", "")
        for digits, count in [("9" * 300, str(2 * int("9" * 300))),
                              ("4" * 4300, str(2 * int("4" * 4300))),
                              ("5" * 4300, "at least 10^4300")]:
            error = f"error: transform output needs {count} letters, over the guard 16777216\n"
            assert run(capsys, ["transform", f"ab x{digits}"]) == (3, "", error)
            text = '{"necklaces": [{"lyndon": "ab", "multiplicity": %s}]}' % digits
            assert run(capsys, ["transform", text]) == (3, "", error)

    def test_non_lyndon_entry_rejected(self, capsys):
        code, _, err = run(capsys, ["transform", "ba"])
        assert code == 2
        assert "ba" in err and "Lyndon" in err

    def test_canonicalize_accepts_rotations(self, capsys):
        code, out, _ = run(capsys, ["transform", "ba", "--canonicalize"])
        assert code == 0
        assert out == "ba\n"

    @pytest.mark.parametrize("text, canonicalize, error", [
        ("ab" * 2**17, True, "entry %r... (262144 letters) is not primitive" % ("ab" * 32)),
        ("b" + "a" * 99, False, "entry %r... (100 letters) is not a Lyndon word (canonical "
         "form %s...); pass --canonicalize to accept rotations" % ("b" + "a" * 63, "a" * 64)),
        ("b" + "a" * 63, False, "entry %r is not a Lyndon word (canonical form %s); pass "
         "--canonicalize to accept rotations" % ("b" + "a" * 63, "a" * 63 + "b")),
        ('{"necklaces": [{"lyndon": "%s", "multiplicity": 0}]}' % ("a" * 65), False,
         "bad multiplicity for entry %r... (65 letters): 0" % ("a" * 64)),
        ('{"necklaces": [{"lyndon": "%s", "x": 1}]}' % ("a" * 65), False,
         "JSON necklace entry %r... (65 letters) has the unknown key 'x'" % ("a" * 64)),
    ])
    def test_long_entry_errors_stay_short(self, capsys, text, canonicalize, error):
        # an entry of more than 64 letters is quoted by its first 64 and its
        # length, and so is its canonical form, by its first 64
        extra = ["--canonicalize"] if canonicalize else []
        assert run(capsys, ["transform", text, *extra]) == (2, "", f"error: {error}\n")

    def test_non_primitive_always_rejected(self, capsys):
        code, _, err = run(capsys, ["transform", "abab", "--canonicalize"])
        assert code == 2
        assert "abab" in err and "primitive" in err

    @pytest.mark.parametrize("entries, canonicalize, error", [
        # errors come in entry order, whether an entry fails its parse or its
        # checks; the first case is the corpus call that pins that order
        ([("aa", 3), ("dacdd", 3)], True, "entry 'aa' is not primitive"),
        ([("ab", 1), ("aa", 1), ("ac", 1)], False, "entry 'aa' is not primitive"),
        ([("ab", 2), ("ba", 1), ("ca", 1)], False,
         "entry 'ba' is not a Lyndon word (canonical form ab); pass --canonicalize to "
         "accept rotations"),
        ([("ab", 2), ("ba", 1), ("bca", 1), ("aa", 1)], True,
         "character 'c' not in alphabet 'ab'"),
        ([("ac", 1), ("aa", 1)], False, "character 'c' not in alphabet 'ab'"),
        ([("abb", 1), ("bad", 1), ("ca", 1)], False, "character 'd' not in alphabet 'ab'"),
        # a Lyndon form judged by the ranking comes before a later entry's
        # primitivity, judged before any ranking
        ([("ab", 1), ("bba", 2), ("abab", 1)], False,
         "entry 'bba' is not a Lyndon word (canonical form abb); pass --canonicalize to "
         "accept rotations"),
        ([("abb", 1), ("ab", 3), ("a\U0001f600b", 1), ("ba", 1)], False,
         "character %r not in alphabet 'ab'" % "\U0001f600"),
    ])
    def test_errors_come_in_entry_order(self, capsys, entries, canonicalize, error):
        lines = "\n".join(f"{raw} x{mult}" for raw, mult in entries)
        payload = json.dumps({"necklaces": [{"lyndon": raw, "multiplicity": mult}
                                            for raw, mult in entries]})
        extra = ["--canonicalize"] if canonicalize else []
        for text in (lines, payload):
            assert run(capsys, ["transform", text, "--alphabet", "ab", *extra]) == (
                2, "", f"error: {error}\n")

    @pytest.mark.parametrize("canonicalize", [False, True])
    def test_an_entry_outside_the_alphabet_is_never_ranked(self, capsys, monkeypatch,
                                                            canonicalize):
        # only the entries before it are ranked, to judge their Lyndon form
        ranked = []
        real = bwt._ranking_keys
        monkeypatch.setattr(bwt, "_ranking_keys",
                            lambda texts, *args: ranked.append(texts) or real(texts, *args))
        text = "abb\nab x3\na\U0001f600b\nba"
        extra = ["--canonicalize"] if canonicalize else []
        assert run(capsys, ["transform", text, "--alphabet", "ab", *extra]) == (
            2, "", "error: character %r not in alphabet 'ab'\n" % "\U0001f600")
        assert ranked == ([] if canonicalize else [["abb", "ab"]])

    @pytest.mark.parametrize("guard", range(1, 19))
    def test_file_refuses_at_the_line_of_the_argument(self, capsys, tmp_path, guard):
        # the running count is judged at every line on both channels; the
        # malformed last line is read only when no line passes the guard
        text = "ab\naab x2\n\nabb x3\nab x"
        path = tmp_path / "multiset.txt"
        path.write_text(text)
        letters = next((total for total in (2, 8, 17) if total > guard), None)
        if letters is None:
            expected = (2, "", "error: line 5: expected 'word' or 'word xN', got 'ab x'\n")
        else:
            expected = (3, "", f"error: transform output needs {letters} letters, "
                               f"over the guard {guard}\n")
        for source in ([text], ["--file", str(path)]):
            assert run(capsys, ["transform", *source, "--guard-cells", str(guard)]) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.lists(
        st.tuples(st.text(letters, min_size=1, max_size=7).filter(naive_primitive),
                  st.integers(1, 3)), max_size=8)))
    def test_json_and_text_outputs_agree(self, items):
        # the text lines and the JSON payload are built apart, one per call
        def output(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(list(argv)) == 0
            return out.getvalue()

        text = "\n".join(f"{raw} x{mult}" for raw, mult in items)
        word = output("transform", text, "--canonicalize")[:-1]
        assert json.loads(output("transform", text, "--canonicalize", "--json")) == {
            "word": word}
        lines = output("invert", word or " ").splitlines()
        payload = json.loads(output("invert", word or " ", "--json"))
        assert [entry["lyndon"] if entry["multiplicity"] == 1
                else f"{entry['lyndon']} x{entry['multiplicity']}"
                for entry in payload["necklaces"]] == lines

    def test_parse_error_names_line(self, capsys):
        code, _, err = run(capsys, ["transform", "aab\nab x\nabb"])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("text, error", [
        ("\n\nab\nab x0", "line 4: multiplicity must be positive"),
        (" \r\n\t\n  ab\nab y", "line 4: expected 'word' or 'word xN', got 'ab y'"),
        ('\n\n{"necklaces": [}', "line 3: invalid JSON: Expecting value"),
        ('\n \n\n  {"necklaces":\n[}', "line 5: invalid JSON: Expecting value"),
        # line breaks inside the document count as they do before it
        ('{"necklaces":\r\r[}', "line 3: invalid JSON: Expecting value"),
        ('\r\r{"necklaces": [}', "line 3: invalid JSON: Expecting value"),
        ('\r\n{"necklaces":\r\n\r[}', "line 4: invalid JSON: Expecting value"),
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_leading_blank_lines_are_counted(self, capsys, monkeypatch, text, error, chunk):
        # line numbers count from the first line of the input, blank or
        # not, in argv and on stdin, wherever the reads fall
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(text))
        for source in ([text], []):
            assert run(capsys, ["transform", *source]) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_long_line_after_blank_lines_names_its_line(self, capsys, monkeypatch, chunk):
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        longest = 20 + chunk
        text = "\n \n" + "ab" * longest
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(text))
        for source in ([text], []):
            assert run(capsys, ["transform", *source, "--guard-cells", "20"]) == (
                3, "", f"error: transform input line 3 has more than {longest} characters, "
                       "over the guard 20\n")

    def test_leading_blank_lines_are_not_held(self, capsys, monkeypatch):
        # a million blank lines are counted as they are read, not kept
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(" \n" * 10**6 + "ab x0\n"))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["transform"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * cli.INPUT_CHUNK
        assert (code, out, err) == (2, "", "error: line 1000001: multiplicity must be positive\n")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", ChunkedStdin("aab\nab\nabb\n"))
        code, out, _ = run(capsys, ["transform"])
        assert code == 0
        assert out == "babbaaba\n"

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "multiset.txt"
        path.write_text("aab\nab\nabb\n")
        code, out, _ = run(capsys, ["transform", "--file", str(path)])
        assert code == 0
        assert out == "babbaaba\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["transform", "--file", str(tmp_path / "nope")])
        assert code == 2


def naive_quoted(raw: str) -> str:
    """An entry as the errors quote it: whole up to 64 letters, else its
    first 64 and its length."""
    return repr(raw) if len(raw) <= 64 else f"{raw[:64]!r}... ({len(raw)} letters)"


def naive_transform_call(entries, canonicalize: bool, letters: str | None):
    """(exit code, stdout, stderr) of `ebwt transform` of the lines 'raw xN'
    of `entries`, the naive way: lines with one raw entry merge, each merged
    entry is checked in turn (its letters, then naive_primitive, then
    naive_least_rotation) and added to its necklace, and the necklaces go to
    naive_bwt, or to prefix_bwt when the lcm-width table would pass 10^6
    letters.  An error quotes at most 64 letters of an entry and of its
    canonical form."""
    merged = Counter()
    for raw, mult in entries:
        merged[raw] += mult
    alphabet = letters or "".join(sorted(set("".join(merged)))) or "ab"
    necklaces = Counter()
    for raw, mult in merged.items():
        char = next((c for c in raw if c not in alphabet), None)
        if char is not None:
            return 2, "", f"error: character {char!r} not in alphabet {alphabet!r}\n"
        if not naive_primitive(raw):
            return 2, "", f"error: entry {naive_quoted(raw)} is not primitive\n"
        lyndon = naive_least_rotation(raw)
        if lyndon != raw and not canonicalize:
            shown = lyndon if len(lyndon) <= 64 else lyndon[:64] + "..."
            return 2, "", (f"error: entry {naive_quoted(raw)} is not a Lyndon word (canonical "
                           f"form {shown}); pass --canonicalize to accept rotations\n")
        necklaces[lyndon] += mult
    items = sorted(necklaces.items())
    width = reduce(lcm, (len(lyndon) for lyndon, _ in items), 1)
    rows = sum(len(lyndon) * mult for lyndon, mult in items)
    oracle = naive_bwt if width * rows <= 10**6 else prefix_bwt
    return 0, oracle(items) + "\n", ""


@st.composite
def raw_multisets(draw):
    """(entries, --canonicalize, --alphabet) of a transform: entries of up
    to about 150 letters over 1-3 letters, roots of u^j v with a short u,
    so that rotations tie past the 64-letter window.  Most are Lyndon
    words; some are rotations of an earlier entry (itself, too, which
    merges), more of them under --canonicalize, and some proper powers;
    multiplicities go up to 3.  The alphabet is mostly inferred, else fixed
    to the letters or to all but the last."""
    letters = draw(st.sampled_from(["a", "ab", "ab", "abc", "abc"]))
    canonicalize = draw(st.booleans())
    stem = st.tuples(st.text(letters, min_size=1, max_size=4), st.integers(1, 40),
                     st.text(letters, max_size=4)).map(
                         lambda d: naive_root((d[0] * d[1] + d[2])[:150]))
    kinds = ["lyndon"] * (3 if canonicalize else 12) + ["rotation"] * 3 + ["power"]
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "rotation" and entries:
            base = draw(st.sampled_from(entries))[0]
            i = draw(st.integers(0, len(base) - 1))
            raw = base[i:] + base[:i]
        elif kind == "power":
            raw = draw(st.text(letters, min_size=1, max_size=5)) * draw(st.integers(2, 30))
        else:
            raw = naive_least_rotation(draw(stem))
        entries.append((raw, draw(st.integers(1, 3))))
    override = draw(st.sampled_from([None, None, None, letters, letters[:-1] or None]))
    return entries, canonicalize, override


class TestTransformAgainstNaive:
    @settings(max_examples=300, deadline=None)
    @given(raw_multisets())
    def test_matches_the_naive_checker_and_transform(self, drawn):
        entries, canonicalize, override = drawn
        text = "\n".join(f"{raw} x{mult}" for raw, mult in entries)
        argv = ["transform", text, *(["--canonicalize"] if canonicalize else []),
                *(["--alphabet", override] if override else [])]
        assert call(argv) == naive_transform_call(entries, canonicalize, override)


def naive_invert_call(text: str, letters: str | None, as_json: bool):
    """(exit code, stdout, stderr) of `ebwt invert` of `text`, the naive way:
    the text stripped, its alphabet --alphabet or its sorted letters ("ab"
    for blank text), its characters checked in order against it, and each
    cycle of the naive standard permutation, read from its least row,
    spelled and taken at its least rotation; the Lyndon words are counted
    and printed in order, a line each or as JSON."""
    word = text.strip()
    alphabet = letters or "".join(sorted(set(word))) or "ab"
    outside = next((c for c in word if c not in alphabet), None)
    if outside is not None:
        return 2, "", f"error: character {outside!r} not in alphabet {alphabet!r}\n"
    image, column = naive_standard_permutation([alphabet.index(c) for c in word])
    counts = Counter()
    for cycle in naive_cycles(image):
        counts[naive_least_rotation("".join(alphabet[column[i]] for i in cycle))] += 1
    items = sorted(counts.items())
    if as_json:
        payload = {"necklaces": [{"lyndon": w, "multiplicity": m} for w, m in items]}
        return 0, json.dumps(payload, sort_keys=True) + "\n", ""
    return 0, "".join(f"{w}\n" if m == 1 else f"{w} x{m}\n" for w, m in items), ""


CJK_300 = "".join(map(chr, range(0x4E00, 0x4E00 + 300)))
# 1-3 Latin letters; Latin-1 past ASCII; the BMP past Latin-1; past the BMP;
# and 300 CJK letters, past 256
INVERT_LETTERS = ["a", "ab", "ab", "abc", "abc", "a\u00e9\u00ff", "\u4e00\u4e01\u4e02",
                  "a\U0001f600\U0001f601", CJK_300]


@st.composite
def invert_calls(draw):
    """(text, --alphabet, --json) of an invert: a random word, or the
    transform of a multiset with multiplicities up to 6 (by `prefix_bwt`),
    over one of INVERT_LETTERS, sometimes with whitespace around it.  The
    alphabet is mostly inferred, else the letters, the letters with unused
    ones added, or the letters with one of the word's own missing."""
    letters = draw(st.sampled_from(INVERT_LETTERS))
    pool = letters if len(letters) < 100 else draw(st.sampled_from(
        [letters[:5], letters[100:110], letters]))
    if draw(st.booleans()):
        items = draw(st.lists(st.tuples(st.text(pool, min_size=1, max_size=8),
                                        st.integers(1, 6)), min_size=1, max_size=4))
        necklaces = Counter()
        for raw, mult in items:
            necklaces[naive_least_rotation(naive_root(raw))] += mult
        word = prefix_bwt(sorted(necklaces.items()))
    else:
        word = draw(st.text(pool, max_size=80))
    kind = draw(st.sampled_from(["inferred", "inferred", "letters", "unused", "missing"]))
    override = None
    if kind == "letters":  # all 300 for the CJK letters
        override = letters
    elif kind == "unused":
        extra = draw(st.text("z\u00e0\u4e00\U0001f602", min_size=1, max_size=3))
        override = "".join(sorted(set(letters + extra)))
    elif kind == "missing" and word:
        dropped = draw(st.sampled_from(sorted(set(word))))
        override = "".join(sorted(set(letters + "z") - {dropped}))
    pad = draw(st.sampled_from(["", " ", "\n", " \t\n"]))
    return pad + word + pad, override, draw(st.booleans())


class TestInvertAgainstNaive:
    @settings(max_examples=300, deadline=None)
    @given(invert_calls())
    def test_matches_the_naive_checker_and_inverse(self, drawn):
        text, override, as_json = drawn
        argv = ["invert", text, *(["--alphabet", override] if override else []),
                *(["--json"] if as_json else [])]
        assert call(argv) == naive_invert_call(text, override, as_json)


class TestUndecodableFile:
    """A --file or stdin that is not UTF-8 is an input error whose position
    counts from the start of the input, as a whole read of it gives it,
    however the input is read in blocks and whatever the locale."""

    @pytest.mark.parametrize("command, data, position", [
        ("transform", b"ab\n" * 5000 + b"\xff\n", 15000),
        ("invert", b"ab" * 100000 + b"\xff", 200000),
    ])
    def test_position_from_the_start_of_the_file(self, capsys, tmp_path,
                                                 command, data, position):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        code, out, err = run(capsys, [command, "--file", str(path)])
        assert code == 2
        assert out == ""
        assert err == (f"error: 'utf-8' codec can't decode byte 0xff in position "
                       f"{position}: invalid start byte\n")

    @pytest.mark.parametrize("command, data, position", [
        ("transform", b"ab\n" * 5000 + b"\xff\n", 15000),
        ("invert", b"ab" * 100000 + b"\xff", 200000),
        ("invert", b"abab\xff", 4),
    ])
    def test_stdin_position_from_the_start(self, capsys, monkeypatch,
                                           command, data, position):
        # stdin as the C locale opens it: its own decoding would let the bad
        # byte through as a lone surrogate
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, [command])
        assert code == 2
        assert out == ""
        assert err == (f"error: 'utf-8' codec can't decode byte 0xff in position "
                       f"{position}: invalid start byte\n")

    def test_piped_stdin_under_the_c_locale(self):
        env = dict(os.environ, LC_ALL="C",
                   PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]))
        env.pop("PYTHONUTF8", None)
        proc = subprocess.run(
            [sys.executable, "-m", "ebwt.cli", "invert"],
            input=b"ab" * 100000 + b"\xff", capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (b"error: 'utf-8' codec can't decode byte 0xff in position "
                               b"200000: invalid start byte\n")

    @given(st.sampled_from(["transform", "invert"]),
           st.integers(0, 3 * 2**16), st.sampled_from(["\u00e9", "\u20ac", "\U0001d11e"]),
           st.sampled_from([b"\xff", b"\xe2\x82x", b"\xe2\x82", b"\xc3"]))
    @settings(max_examples=60, deadline=None)
    def test_positions_match_a_whole_read(self, tmp_path_factory, command, letters,
                                          wide, bad):
        # multibyte characters straddle the decoder's block boundaries, and
        # the bad bytes are a lone byte, a broken sequence and a truncated
        # tail (of the file, or of its first line for transform)
        text = ("ab" * (letters // 2) + wide * (letters % 7)).encode()
        data = text + bad + b"\nab"
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            expected = f"error: {e}\n"
        path = tmp_path_factory.getbasetemp() / "undecodable.txt"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--file", str(path)])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", expected)


    @given(st.sampled_from([1, 2, 3, 2**16]), st.integers(0, 3),
           st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\r\n", "\u00e9".encode(),
                                     "\u20ac".encode(), "\U0001d11e".encode(),
                                     "\u2028".encode(), b"\xff", b"\xe2\x82", b"\xc3",
                                     b"\xed\xa0\x80"]), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_file_text_matches_a_whole_decode(self, tmp_path_factory, chunk, before, pieces):
        # the pieces start up to 3 bytes before the first block edge, so
        # multibyte letters, "\r\n" and bad or truncated bytes straddle it or
        # a later one, and a lone "\r" may end a block or the file
        data = b"a" * max(chunk - before, 0) + b"".join(pieces)
        try:
            expected = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as e:
            expected = str(e)
        path = tmp_path_factory.getbasetemp() / "text.txt"
        path.write_bytes(data)
        try:
            with mock.patch.object(cli, "INPUT_CHUNK", chunk):
                got = "".join(cli._chunks(argparse.Namespace(text=None, file=str(path))))
        except cli.CLIError as e:
            got = str(e)
        assert got == expected

    def test_argv_text_comes_whole_as_given(self):
        text = "ab\r\nab\rab\u2028\xff"
        assert list(cli._chunks(argparse.Namespace(text=text, file=None))) == [text]


class TestInvert:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, ["invert", "babbaaba"])
        assert code == 0
        assert out == "aab\nab\nabb\n"

    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, ["invert", "a"])
        assert code == 0
        assert out == "a\n"

    def test_multiplicity_output(self, capsys):
        code, out, _ = run(capsys, ["invert", "bbaa"])
        assert code == 0
        assert out == "ab x2\n"

    def test_empty(self, capsys):
        code, out, _ = run(capsys, ["invert", ""])
        assert code == 0
        assert out == ""

    def test_blank_text_prints_nothing(self, capsys):
        assert run(capsys, ["invert", " \n\t "]) == (0, "", "")

    @pytest.mark.parametrize("command", ["transform", "invert"])
    def test_empty_input_judges_its_alphabet(self, capsys, command):
        # an --alphabet is judged even when the input holds no letter
        assert run(capsys, [command, "", "--alphabet", "aba"]) == (
            2, "", "error: --alphabet has repeated characters: 'aba'\n")
        assert run(capsys, [command, "", "--alphabet", "ab", "--json"])[0] == 0

    def test_character_outside_alphabet(self, capsys):
        code, _, err = run(capsys, ["invert", "abc", "--alphabet", "ab"])
        assert code == 2
        assert "'c'" in err

    def test_no_word_necklace_or_render(self, capsys, monkeypatch):
        # the kernel reads the raw text: no parse into a Word, no record per
        # necklace, and no render of the Lyndon words, in text and JSON,
        # with and without --alphabet, over Latin and CJK letters
        rng = random.Random(39)
        calls = [(text, override, as_json)
                 for text, override in [("babbaaba", None), ("bbbaaa", "abc"), ("ab" * 500, None),
                                        ("".join(rng.choices("abc", k=2000)), None),
                                        ("".join(rng.choices(CJK_300, k=2000)), CJK_300)]
                 for as_json in (False, True)]
        expected = [naive_invert_call(*drawn) for drawn in calls]
        for owner, name in [(Alphabet, "word"), (Alphabet, "render"), (Word, "unchecked"),
                            (Necklace, "unchecked")]:
            monkeypatch.setattr(owner, name, lambda *args, name=name: pytest.fail(name))
        for (text, override, as_json), output in zip(calls, expected):
            argv = ["invert", text, *(["--alphabet", override] if override else []),
                    *(["--json"] if as_json else [])]
            assert run(capsys, argv) == output

    def test_round_trip_bytes(self, capsys):
        code, word_out, _ = run(capsys, ["transform", "aab\nab\nabb"])
        assert code == 0
        code, multiset_out, _ = run(capsys, ["invert", word_out.strip()])
        assert code == 0
        assert multiset_out == "aab\nab\nabb\n"
        code, word_again, _ = run(capsys, ["transform", multiset_out])
        assert code == 0
        assert word_again == word_out

    def test_input_guard_edge(self, capsys):
        code, out, _ = run(capsys, ["invert", "babbaaba", "--guard-cells", "8"])
        assert code == 0
        assert out == "aab\nab\nabb\n"
        code, out, err = run(capsys, ["invert", "babbaaba", "--guard-cells", "7"])
        assert code == 3
        assert out == ""
        assert err == "error: invert input has 8 letters, over the guard 7\n"

    def test_input_guard_refuses_before_the_permutation(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("invert ran past its guard")
        monkeypatch.setattr(cli, "_alphabet_from", fail)
        monkeypatch.setattr(cli, "inverse_text", fail)
        monkeypatch.setattr(sys, "stdin", ChunkedStdin("ab" * 2**23 + "a\n"))
        code, out, err = run(capsys, ["invert"])
        assert code == 3
        assert out == ""
        assert err == ("error: invert input has more than 16777216 letters, "
                       "over the guard 16777216\n")

    def test_input_guard_bounds_reading(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("invert ran past its guard")
        monkeypatch.setattr(cli, "inverse_text", fail)
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(" \n\t" + "ab" * 10**6 + "a\r\n "))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["invert", "--guard-cells", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few chunks in flight, far below the 2 MB text
        assert peak < 8 * cli.INPUT_CHUNK
        assert code == 3
        assert out == ""
        assert err == "error: invert input has more than 1000 letters, over the guard 1000\n"

    @pytest.mark.parametrize("command, first", [("invert", b"y\n"), ("transform", b"{\n")])
    def test_endless_stdin_refused_after_a_few_reads(self, capsys, monkeypatch, command, first):
        # `yes | ebwt invert` and `(echo "{"; yes) | ebwt transform`: refused
        # at the first block past the bound, after one more read
        stdin = EndlessStdin(first, b"y\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run(capsys, [command, "--guard-cells", "1000"])
        assert (code, out) == (3, "")
        bound = 1000 if command == "invert" else 1000 + cli.INPUT_CHUNK
        assert f" has more than {bound} " in err and err.count("\n") == 1
        assert stdin.reads <= 4

    @pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 16])
    def test_stream_input_at_and_under_the_guard(self, capsys, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        padded = "\n \t babbaaba  \n\n"
        path = tmp_path / "word.txt"
        path.write_text(padded, encoding="utf-8")
        for guard in ("8", "9"):
            monkeypatch.setattr(sys, "stdin", ChunkedStdin(padded))
            for source in (["invert"], ["invert", "--file", str(path)]):
                code, out, _ = run(capsys, source + ["--guard-cells", guard])
                assert code == 0
                assert out == "aab\nab\nabb\n"
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(padded))
        code, out, err = run(capsys, ["invert", "--guard-cells", "7"])
        assert code == 3
        assert err == "error: invert input has more than 7 letters, over the guard 7\n"

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_read_stripped_counts_like_strip(self, monkeypatch, chunk):
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        rng = random.Random(chunk)
        for _ in range(200):
            text = "".join(rng.choice("ab \n\t\r") for _ in range(rng.randint(0, 40)))
            # stdin is read with universal newlines
            stripped = text.replace("\r\n", "\n").replace("\r", "\n").strip()
            for guard in (1, max(len(stripped) - 1, 0), len(stripped), 100):
                monkeypatch.setattr(sys, "stdin", ChunkedStdin(text))
                chunks = cli._chunks(STDIN)
                if len(stripped) <= guard:
                    assert cli._read_stripped(chunks, guard, "{}") == stripped
                else:
                    with pytest.raises(ResourceLimitError, match=f"^more than {guard}$"):
                        cli._read_stripped(chunks, guard, "{}")


class TestDeBruijn:
    def test_least_span5(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "5", "--least"])
        assert code == 0
        assert out == "a aaaab aaabb aabab aabbb ababb abbbb b".replace(" ", "") + "\n"

    def test_count(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "3", "--count"])
        assert code == 0
        assert out == "2\n"

    def test_count_digit_guard(self, capsys):
        # (4!)^(4^8) / 4^9 has about 90k digits: refused before it is built
        code, out, err = run(capsys, ["debruijn", "4", "9", "--count"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "4300 digits" in err
        code, out, _ = run(capsys, ["debruijn", "2", "5", "--count"])
        assert code == 0
        assert out == "2048\n"

    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_count_of_a_span_too_large_for_a_float(self, capsys, output):
        # n = 10^400 has no float: refused by the digit guard, no traceback
        n = 10**400
        assert run(capsys, ["debruijn", "2", str(n), "--count", *output]) == (
            3, "", f"error: the number of de Bruijn words of span {n} over 2 letters has "
                   "more than 4300 digits\n")

    def test_from_gamma_single(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "4", "--from-gamma",
                                    "babababaabbababa"])
        assert code == 0
        assert out == "aaaabbbbaababbab\n"

    def test_from_gamma_pair(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "4", "--from-gamma",
                                    "baababbabaababba"])
        assert code == 0
        assert out == "aaaabaabbbbabb\nab\n"

    def test_from_gamma_rejects_bad_block(self, capsys):
        code, _, err = run(capsys, ["debruijn", "2", "3", "--from-gamma", "babbaaba"])
        assert code == 2
        assert "block 1" in err

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, ["debruijn", "2", "25", "--least",
                                    "--guard-cells", "1024"])
        assert code == 3

    def test_guard_message_names_small_power(self, capsys):
        code, out, err = run(capsys, ["debruijn", "2", "30", "--least"])
        assert code == 3
        assert out == ""
        assert err == ("error: span-30 generation over 2 letters needs k^n = 1073741824 "
                       "positions, over the guard 16777216\n")

    @pytest.mark.parametrize("argv,power", [
        (["debruijn", "2", "3000000", "--least"], "k^n = 2^3000000 positions"),
        (["debruijn", "7", "30000000", "--least"], "k^n = 7^30000000 positions"),
        (["debruijn", "2", "100000000000", "--least"], "k^n = 2^100000000000 positions"),
        (["factors", "--max", "30000000", "2"], "scanning 2^30000000 words"),
        # a span past a float's range is compared, not converted
        pytest.param(["debruijn", "2", "1" + "0" * 400, "--least"],
                     "k^n = 2^1" + "0" * 400 + " positions", id="least-401-digit-span"),
        pytest.param(["debruijn", "2", "1" + "0" * 400, "--from-gamma", "ab"],
                     "k^n = 2^1" + "0" * 400 + " positions", id="from-gamma-401-digit-span"),
        pytest.param(["factors", "--max", "1" + "0" * 400, "2"],
                     "scanning 2^1" + "0" * 400 + " words", id="max-401-digit-length"),
    ])
    def test_huge_power_refused_without_building_it(self, capsys, argv, power):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert power in err

    def test_from_gamma_huge_span_is_refused_by_the_guard(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["debruijn", "7", "30000000", "--from-gamma", "abcdefg"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == ("error: span-30000000 generation over 7 letters needs k^n = 7^30000000 "
                       "positions, over the guard 16777216\n")

    @pytest.mark.parametrize("word", ["abababab", "a", "a b", "abc"])
    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_from_gamma_is_guarded_before_its_word_is_read(self, capsys, word, output):
        # k^n against --guard-cells, as for --least: over it is exit 3
        # whatever the word, and at it the word is judged
        argv = ["debruijn", "2", "3", "--from-gamma", word, *output]
        assert run(capsys, argv + ["--guard-cells", "7"]) == (
            3, "", "error: span-3 generation over 2 letters needs k^n = 8 positions, "
                   "over the guard 7\n")
        code, out, err = run(capsys, argv + ["--guard-cells", "8"])
        if word == "abababab":
            assert (code, err) == (0, "") and len(out.splitlines()) == (1 if output else 4)
        else:
            assert (code, out) == (2, "") and err.startswith("error: ")

    @pytest.mark.parametrize("mode", [["--least"], ["--count"], ["--from-gamma", "a b"],
                                      ["--from-gamma", ""]])
    @pytest.mark.parametrize("k, n", [(1, 2), (2, 0), (0, -1)])
    def test_alphabet_and_span_rule_speaks_first(self, capsys, mode, k, n):
        # one rule for every mode, judged before --from-gamma parses its word
        assert run(capsys, ["debruijn", str(k), str(n), *mode]) == (
            2, "", f"error: need k >= 2 and n >= 1, got k={k}, n={n}\n")

    def test_alphabet_rendering(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "3", "--least",
                                    "--alphabet", "01"])
        assert code == 0
        assert out == "00010111\n"

    @pytest.mark.parametrize("k", [27, 40])
    def test_least_over_more_than_26_given_letters(self, capsys, k):
        # the word is generated over the letters of --alphabet, and equals
        # the Lyndon-concatenation oracle rendered on them
        letters = "".join(map(chr, range(0x100, 0x100 + k)))
        expected = str(lyndon_concatenation_oracle(k, 2, alphabet=Alphabet(letters)))
        assert len(expected) == k**2
        for flag in ([], ["--json"]):
            code, out, err = run(capsys, ["debruijn", str(k), "2", "--least",
                                          "--alphabet", letters, *flag])
            assert (code, err) == (0, "")
            assert out == (json.dumps({"word": expected}) if flag else expected) + "\n"

    def test_more_than_26_letters_need_an_alphabet(self, capsys, monkeypatch):
        # without --alphabet the default one refuses them, before generation
        # walks the permutation
        def fail(*args):
            raise AssertionError("generated a word over no alphabet")

        monkeypatch.setattr(debruijn, "inverse_text", fail)
        assert run(capsys, ["debruijn", "27", "2", "--least"]) == (
            2, "", "error: default alphabet supports 1..26 letters, got 27\n")

    def test_alphabet_size_mismatch(self, capsys):
        code, _, err = run(capsys, ["debruijn", "3", "2", "--least",
                                    "--alphabet", "01"])
        assert code == 2

    @pytest.mark.parametrize("alphabet,error", [
        ("xyz", "error: --alphabet needs 2 characters, got 3\n"),
        (" x", "error: --alphabet ' x' holds the whitespace letter ' '\n"),
    ])
    def test_alphabet_judged_before_generation(self, capsys, monkeypatch, alphabet, error):
        def fail(*args, **kwargs):
            raise AssertionError("generated a word for a bad --alphabet")

        monkeypatch.setattr(cli, "least_debruijn_word", fail)
        code, out, err = run(capsys, ["debruijn", "2", "20", "--least", "--alphabet", alphabet])
        assert (code, out, err) == (2, "", error)
        # over the guard is still exit 3, ahead of the alphabet
        code, _, err = run(capsys, ["debruijn", "2", "30", "--least", "--alphabet", alphabet])
        assert code == 3 and err.startswith("error: span-30 generation")

    def test_requires_mode(self, capsys):
        code, _, _ = run(capsys, ["debruijn", "2", "3"])
        assert code == 2


class TestSemigroup:
    def test_check_iso(self, capsys):
        code, out, _ = run(capsys, ["semigroup", "ab", "--check-iso"])
        assert code == 0
        assert out.splitlines() == [
            "action order 5",
            "syntactic order 5",
            "ISOMORPHIC",
        ]

    def test_action_order(self, capsys):
        code, out, _ = run(capsys, ["semigroup", "ab", "--action"])
        assert code == 0
        assert out.splitlines() == ["action order 5", "generators a b"]

    def test_syntactic_order(self, capsys):
        code, out, _ = run(capsys, ["semigroup", "aab", "--syntactic"])
        assert code == 0
        assert out.splitlines()[0] == "syntactic order 11"

    def test_table_grid(self, capsys):
        code, out, _ = run(capsys, ["semigroup", "ab", "--action", "--table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "action order 5"
        grid = lines[2:]
        assert len(grid) == 6  # header + 5 element rows
        # elements labelled by shortest words in discovery order; a*a is the
        # empty map, labelled aa
        header = grid[0].split()
        assert header[0] == "*" and header[1:] == ["a", "b", "aa", "ab", "ba"]
        row_a = grid[1].split()
        assert row_a[0] == "a" and row_a[1] == "aa" and row_a[2] == "ab"

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, ["semigroup", "ab", "--action", "--table", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "action_order": 5,
            "generators": ["a", "b"],
            "elements": ["a", "b", "aa", "ab", "ba"],
            "table": [[2, 3, 2, 2, 0], [4, 2, 2, 1, 2], [2, 2, 2, 2, 2], [0, 2, 2, 3, 2],
                      [2, 1, 2, 2, 4]],
        }

    def test_non_primitive_rejected(self, capsys):
        code, _, err = run(capsys, ["semigroup", "abab", "--action"])
        assert code == 2
        assert "primitive" in err

    def test_non_primitive_syntactic_warns_in_one_line(self, capsys):
        code, out, err = run(capsys, ["semigroup", "abab", "--syntactic"])
        assert code == 0
        assert out.splitlines() == ["syntactic order 9", "generators a b"]
        assert err == (
            "warning: abab is not primitive; the action comparison theorem "
            "assumes a primitive word\n"
        )

    @pytest.mark.parametrize("word", ["a b", " ab", "ab\n", "a\tb", "a\u00a0b", "a\u3000b"])
    @pytest.mark.parametrize("mode", ["--action", "--syntactic", "--check-iso"])
    def test_whitespace_in_word_refused(self, capsys, word, mode):
        # generators and table labels are separated by spaces in the text
        # output, so a whitespace letter would make it ambiguous
        space = "".join(filter(str.isspace, word))
        code, out, err = run(capsys, ["semigroup", word, mode, "--table"])
        assert code == 2
        assert out == ""
        assert err == f"error: the input holds the whitespace letter {space!r}\n"
        # the same letter brought in through --alphabet, which the word
        # need not use
        code, out, err = run(capsys, ["semigroup", "ab", "--alphabet", word, mode, "--table"])
        assert code == 2
        assert out == ""
        assert err == f"error: --alphabet {word!r} holds the whitespace letter {space!r}\n"

    def test_guard_exit_code(self, capsys):
        code, _, _ = run(capsys, ["semigroup", "aabab", "--action",
                                  "--guard-cells", "4"])
        assert code == 3

    @pytest.mark.parametrize("mode", ["--action", "--syntactic", "--check-iso"])
    @pytest.mark.parametrize("length, letters, guard", [
        (5, "ab", "25"),  # 5^2 + 1 elements at least
        (40, "abc", "1600"),
        (1050, "ab", None),  # the default guard, 10^6
        (2000, "ab", None),
    ])
    def test_closure_refused_before_it_is_built(self, capsys, monkeypatch, mode,
                                                length, letters, guard):
        def fail(*args):
            raise AssertionError("the closure ran")

        rng = random.Random(length)
        word = "".join(rng.choice(letters) for _ in range(length))
        assert naive_primitive(word)
        monkeypatch.setattr(semigroups, "_close", fail)
        argv = ["semigroup", word, mode] + (["--guard-cells", guard] if guard else [])
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == (f"error: semigroup closure exceeds the {guard or 10**6}"
                       "-element guard\n")

    @pytest.fixture
    def closures(self, monkeypatch):
        """The argument tuples of every `_close` call, which still runs."""
        calls = []
        real = semigroups._close

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(semigroups, "_close", spy)
        return calls

    @pytest.fixture
    def exact_orders(self, monkeypatch):
        """The argument tuples of every `cli.closure_order` call, which still
        runs."""
        calls = []
        real = cli.closure_order
        monkeypatch.setattr(cli, "closure_order", lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("mode, closed", [("--action", 0), ("--syntactic", 0),
                                              ("--check-iso", 2)])
    def test_closure_decides_above_the_bound(self, capsys, closures, mode, closed):
        # "aabab" closes to 31 elements, 5^2 + 1 plus its 5 repeated cyclic
        # factors a, b, ab, ba and aba: above the bound 26 the closed-form
        # order decides, so no closure runs below a guard of 31, and none
        # at all but the two that --check-iso compares
        for guard, expected, count in (("25", 3, 0), ("26", 3, 0), ("30", 3, 0),
                                       ("31", 0, closed), ("32", 0, closed)):
            closures.clear()
            code, out, err = run(capsys, ["semigroup", "aabab", mode,
                                          "--guard-cells", guard])
            assert (code, len(closures)) == (expected, count)
            if code == 3:
                assert out == ""
                assert err == (f"error: semigroup closure exceeds the {guard}"
                               "-element guard\n")
            else:
                assert err == "" and "order 31\n" in out

    @pytest.mark.parametrize("mode", ["--syntactic", "--action", "--check-iso"])
    def test_generators_count_against_the_guard(self, capsys, closures, mode):
        # "c" over b, c, f closes to its two generators, the letter c and the
        # empty map of b and f: 1^2 + 1 elements, refused at a guard of 1
        # before any closure runs
        argv = ["semigroup", "c", mode, "--alphabet", "bcf", "--guard-cells"]
        code, out, err = run(capsys, argv + ["1"])
        assert (code, out, len(closures)) == (3, "", 0)
        assert err == "error: semigroup closure exceeds the 1-element guard\n"
        code, out, err = run(capsys, argv + ["2"])
        assert (code, err) == (0, "")
        assert "order 2\n" in out

    @pytest.mark.parametrize("mode", ["--action", "--syntactic", "--check-iso"])
    @pytest.mark.parametrize("word", ["ab", "abab", "a"])
    def test_primitivity_is_decided_once(self, capsys, monkeypatch, mode, word):
        calls = []
        monkeypatch.setattr(cli, "is_primitive", lambda w: calls.append(w) or ebwt.is_primitive(w))
        monkeypatch.setattr(cli, "lyndon_representative", None)  # not called
        code, _, err = run(capsys, ["semigroup", word, mode])
        assert [str(w) for w in calls] == [word]
        assert code == (2 if word == "abab" and mode != "--syntactic" else 0)
        assert err.startswith("warning: ") == (word == "abab" and mode == "--syntactic")

    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_non_primitive_table_refused_without_a_warning(self, capsys, closures, output):
        # the table limit, like the closure guard, speaks before the warning
        # and instead of it
        code, out, err = run(capsys, ["semigroup", "ab" * 512, "--syntactic", "--table", *output])
        assert (code, out, len(closures)) == (3, "", 0)
        assert err.startswith("error: multiplication table of order ") and err.count("\n") == 1

    def test_non_primitive_syntactic_guarded_inside_the_closure(self, capsys,
                                                                closures):
        # "abab" closes to 9 elements, |ab| * |abab| + 1, under its length
        # squared plus one; the closed form refuses it without a closure or
        # a warning, and takes it with the one warning line
        code, out, err = run(capsys, ["semigroup", "abab", "--syntactic", "--guard-cells", "8"])
        assert (code, out) == (3, "")
        assert err == "error: semigroup closure exceeds the 8-element guard\n"
        code, out, err = run(capsys, ["semigroup", "abab", "--syntactic", "--guard-cells", "9"])
        assert (code, out) == (0, "syntactic order 9\ngenerators a b\n")
        assert err.startswith("warning: abab is not primitive")
        assert err.count("\n") == 1
        assert len(closures) == 0

    @pytest.mark.parametrize("extra", [["--action"], ["--syntactic"], ["--action", "--json"],
                                       ["--syntactic", "--json"]])
    def test_table_refused_before_either_closure(self, capsys, monkeypatch, exact_orders,
                                                 extra):
        # the bound 2 * 40^2 + 1 squared passes the table's guard, so the
        # closed form judges the call, once
        def fail(*args):
            raise AssertionError("the closure ran")

        rng = random.Random(40)
        word = "".join(rng.choice("ab") for _ in range(40))
        assert naive_primitive(word) and necklace_closure_order(word, 2) == 1680
        monkeypatch.setattr(semigroups, "_close", fail)
        code, out, err = run(capsys, ["semigroup", word, "--table"] + extra)
        assert (code, out) == (3, "")
        assert err == ("error: multiplication table of order 1680 needs 2822400 cells, "
                       "over the 1048576-cell guard\n")
        assert len(exact_orders) == 1

    @pytest.mark.parametrize("mode", ["--action", "--syntactic"])
    def test_table_judges_the_closure_guard_first(self, capsys, closures, mode):
        # "aabab": 5^2 + 1 = 26 is within guards 26-30, the order 31 is not
        for guard in ("26", "30"):
            code, out, err = run(capsys, ["semigroup", "aabab", mode, "--table",
                                          "--guard-cells", guard])
            assert (code, out, len(closures)) == (3, "", 0)
            assert err == f"error: semigroup closure exceeds the {guard}-element guard\n"
        code, out, _ = run(capsys, ["semigroup", "aabab", mode, "--table", "--guard-cells", "31"])
        assert code == 0 and out.startswith(f"{mode[2:]} order 31\n")
        assert len(closures) == 1

    @pytest.mark.parametrize("word, mode, closed", [
        ("aabab", ["--action"], 0), ("aabab", ["--syntactic"], 0), ("abab", ["--syntactic"], 0),
        ("aabab", ["--action", "--table"], 1), ("aabab", ["--syntactic", "--table"], 1),
        ("abab", ["--syntactic", "--table"], 1), ("aabab", ["--check-iso"], 2),
    ])
    def test_closures_only_for_a_table_or_a_comparison(self, capsys, closures, word, mode,
                                                      closed):
        # the order comes from the closed form, for a primitive word or not;
        # a closure is built only to print its table or to compare the routes
        order = 9 if word == "abab" else 31
        code, out, _ = run(capsys, ["semigroup", word, *mode])
        assert (code, len(closures)) == (0, closed)
        assert f"order {order}\n" in out
        closures.clear()
        code, out, _ = run(capsys, ["semigroup", word, *mode, "--json"])
        assert (code, len(closures)) == (0, closed)
        assert {v for k, v in json.loads(out).items() if k.endswith("_order")} == {order}

    @pytest.fixture
    def routes(self, monkeypatch):
        """The names of the action-route steps that the CLI calls, in order."""
        calls = []
        for name in ("letter_actions", "generate_closure"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, name=name, real=real, **kwargs:
                                calls.append(name) or real(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("word, mode", [("aabab", "--action"), ("aabab", "--syntactic"),
                                            ("abab", "--syntactic")])
    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_table_closes_once_through_the_syntactic_route(self, capsys, closures, routes,
                                                           word, mode, output):
        code, _, _ = run(capsys, ["semigroup", word, mode, "--table", *output])
        assert (code, routes) == (0, [])
        (values,) = [args[2] for args in closures]  # the letters' generators
        assert {type(v) for v in values.values()} == {semigroups.Transformation}

    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_check_iso_closes_both_routes(self, capsys, closures, routes, output):
        code, _, _ = run(capsys, ["semigroup", "aabab", "--check-iso", *output])
        assert (code, routes) == (0, ["letter_actions", "generate_closure"])
        assert [{type(v) for v in args[2].values()} for args in closures] == [
            {semigroups.PartialInjection}, {semigroups.Transformation}]

    @pytest.mark.parametrize("alphabet", [[], ["--alphabet", "abcd"]])
    def test_action_table_is_the_syntactic_table(self, capsys, alphabet):
        # every primitive word of up to 5 letters over 1-3 letters: both
        # modes print one table, in text on every line after the first and
        # in JSON on every key but the order's, and it is the table of the
        # closure of the letter actions, which --action --table once printed
        # (test_semigroups checks the two closures on words of up to 7)
        for length in range(1, 6):
            for letters in product("abc", repeat=length):
                word = "".join(letters)
                if not naive_primitive(word):
                    continue
                argv = ["semigroup", word, "--table", *alphabet]
                action, syntactic = (run(capsys, argv + [mode]) for mode in ("--action",
                                                                             "--syntactic"))
                assert action[0] == syntactic[0] == 0
                assert action[1].split("\n", 1)[1] == syntactic[1].split("\n", 1)[1]
                action, syntactic = (json.loads(run(capsys, argv + [mode, "--json"])[1])
                                     for mode in ("--action", "--syntactic"))
                assert action.pop("action_order") == syntactic.pop("syntactic_order")
                assert action == syntactic
                u = cli._parse_word(word, alphabet[1] if alphabet else None)
                closure = semigroups.generate_closure(semigroups.letter_actions(u))
                assert action["elements"] == [u.alphabet.render(w) for w in closure.element_words]
                assert action["table"] == [list(row) for row in closure.table]

    @pytest.mark.parametrize("mode", ["--action", "--check-iso"])
    def test_action_refuses_a_power_first(self, capsys, closures, mode):
        code, out, err = run(capsys, ["semigroup", "abab", mode, "--guard-cells", "1"])
        assert (code, out, len(closures)) == (2, "", 0)
        assert err == "error: word is not primitive: abab\n"

    @pytest.mark.parametrize("word, mode, closed", [("abab", "--syntactic", 1)])
    def test_table_without_closed_form_closes(self, capsys, closures, word, mode, closed):
        # a printed table, of a word that is primitive or not, is what a
        # closure is built for
        code, _, _ = run(capsys, ["semigroup", word, mode, "--table"])
        assert code == 0 and len(closures) == closed

    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_check_iso_refuses_a_table(self, capsys, closures, monkeypatch, output):
        # --check-iso prints no table, so --table is refused before the
        # closure order is judged or any closure is built
        monkeypatch.setattr(cli, "closure_order", lambda *args: pytest.fail("order judged"))
        assert run(capsys, ["semigroup", "aabab", "--check-iso", "--table", *output]) == (
            2, "", "error: --table is not allowed with --check-iso\n")
        assert closures == []
        # word errors speak first
        assert run(capsys, ["semigroup", "abab", "--check-iso", "--table", *output]) == (
            2, "", "error: word is not primitive: abab\n")

    @pytest.mark.parametrize("mode", [["--check-iso"], ["--action", "--table"],
                                      ["--syntactic", "--table"]])
    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_bound_admits_without_the_closed_form(self, capsys, closures, exact_orders, mode,
                                                 output):
        # aabab, of order 31, has the bound 2 * 5^2 + 1 = 51: a guard of 51
        # or more admits it with no closed form; below that the closed form
        # decides, admitting 31-50 and refusing 30 with the closures' message
        # before either is built; the output does not change
        argv = ["semigroup", "aabab", *mode, *output]
        code, admitted, _ = run(capsys, argv)
        assert (code, len(exact_orders)) == (0, 0)
        assert "31" in admitted
        for guard, calls in (("51", 0), ("50", 1), ("31", 1)):
            exact_orders.clear()
            code, out, _ = run(capsys, argv + ["--guard-cells", guard])
            assert (code, out, len(exact_orders)) == (0, admitted, calls)
        exact_orders.clear()
        closures.clear()
        assert run(capsys, argv + ["--guard-cells", "30"]) == (
            3, "", "error: semigroup closure exceeds the 30-element guard\n")
        assert (len(exact_orders), closures) == (1, [])

    @pytest.mark.parametrize("mode, order", [("--action", 31), ("--syntactic", 31)])
    def test_order_alone_is_the_closed_form(self, capsys, closures, exact_orders, mode, order):
        code, out, _ = run(capsys, ["semigroup", "aabab", mode])
        assert (code, len(exact_orders), closures) == (0, 1, [])
        assert out.startswith(f"{mode[2:]} order {order}\n")

    # The outputs of `semigroup (ab)^12 --syntactic --table`, text and JSON,
    # as they were printed when the closed form judged every call.
    ABAB12_SHA256 = {
        "": "be0b07fd5e26a80e467ab41385c9d3d0621cf1bdc890d7ec7d0aa53b0271d52e",
        "--json": "02f8beda9eaca5c47c8527e88ccdcd26d8037f830d1881b3ff8272e164b10a17",
    }

    @pytest.mark.parametrize("output", ["", "--json"])
    def test_table_near_the_cell_guard_takes_the_closed_form(self, capsys, exact_orders,
                                                             output):
        # (ab)^12 has the bound 2 * 24^2 + 1 = 1153, whose square passes the
        # 2^20 table cells, so the closed form decides, and admits its order
        # 49; (ab)^11, of bound 969 and 969^2 cells, is admitted by the bound
        argv = ["semigroup", "ab" * 12, "--syntactic", "--table"] + ([output] if output else [])
        code, out, err = run(capsys, argv)
        assert (code, len(exact_orders)) == (0, 1)
        assert err.startswith("warning: ") and err.count("\n") == 1
        assert hashlib.sha256(out.encode()).hexdigest() == self.ABAB12_SHA256[output]
        if not output:
            sg = semigroups.syntactic_semigroup(AB.word("ab" * 12))
            labels = [AB.render(w) for w in sg.element_words]  # one render a label
            width = max(map(len, labels))
            grid = [" ".join(["*".rjust(width)] + [label.rjust(width) for label in labels])]
            grid += [" ".join(labels[j].rjust(width) for j in (i, *row))
                     for i, row in enumerate(sg.table)]
            assert out == "\n".join(["syntactic order 49", "generators a b", *grid]) + "\n"
        exact_orders.clear()
        code, out, _ = run(capsys, ["semigroup", "ab" * 11, "--syntactic", "--table"])
        assert (code, len(exact_orders)) == (0, 0)
        assert out.startswith("syntactic order 45\n")

    def test_table_prints_the_closed_form_order(self, capsys, exact_orders):
        # the order that --table prints is that of the closure it builds;
        # it is the closed form's, on every primitive word of up to 8
        # letters over a and b and of up to 6 over a, b and c
        texts = sorted(set(primitive_texts("ab", 8)) | set(primitive_texts("abc", 6)))
        for i, text in enumerate(texts):
            mode = ("--action", "--syntactic")[i % 2]
            code, out, _ = run(capsys, ["semigroup", text, mode, "--table"])
            order = semigroups.closure_order(cli._parse_word(text, None),
                                             semigroups.DEFAULT_CLOSURE_SIZE)
            assert code == 0 and out.startswith(f"{mode[2:]} order {order}\n")
        assert exact_orders == [] and len(texts) == 472 + 935

    def test_table_cell_guard(self, capsys):
        # a random primitive 62-letter word closes to a few thousand elements,
        # whose table would pass 2^20 cells
        rng = random.Random(62)
        word = "".join(rng.choice("ab") for _ in range(62))
        assert naive_primitive(word)
        code, out, err = run(capsys, ["semigroup", word, "--action", "--table"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


class TestFactors:
    def test_count_word(self, capsys):
        code, out, _ = run(capsys, ["factors", "abab"])
        assert code == 0
        assert out == "7\n"

    def test_full_alphabet(self, capsys):
        code, out, _ = run(capsys, ["factors", "abc"])
        assert code == 0
        assert out == "6\n"

    def test_max_table(self, capsys):
        code, out, _ = run(capsys, ["factors", "--max", "3", "2"])
        assert code == 0
        assert out.splitlines() == [
            "n 3", "max_distinct 5", "upper_bound 5", "witness aab",
        ]

    @pytest.mark.parametrize("n, k", [(2, 2), (5, 1), (1, 3)])
    def test_witness_rule_is_the_library_one(self, capsys, monkeypatch, n, k):
        calls = []
        real = cli.debruijn_factor_witness
        monkeypatch.setattr(cli, "debruijn_factor_witness",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        assert run(capsys, ["factors", "--witness", str(n), str(k)]) == (
            2, "", f"error: witness needs n > k >= 2, got n={n}, k={k}\n")
        assert calls == [(n, k)]

    def test_witness_report(self, capsys):
        code, out, _ = run(capsys, ["factors", "--witness", "16", "2"])
        assert code == 0
        assert out.splitlines() == [
            "witness aaaabaabbababbbb",
            "span 4",
            "distinct_factors 105",
            "lower_bound 91",
        ]

    def test_max_guard(self, capsys):
        code, _, _ = run(capsys, ["factors", "--max", "30", "2"])
        assert code == 3
        code, out, err = run(capsys, ["factors", "--max", "20", "2"])
        assert code == 3
        assert out == ""
        assert err == "error: scanning 2^20 = 1048576 words exceeds the 262144-word guard\n"

    def test_word_guard_edge(self, capsys):
        code, out, _ = run(capsys, ["factors", "abab", "--guard-cells", "4"])
        assert code == 0
        assert out == "7\n"
        code, out, err = run(capsys, ["factors", "abab", "--guard-cells", "3"])
        assert code == 3
        assert out == ""
        assert err == "error: factors input has 4 letters, over the guard 3\n"

    def test_word_guard_refuses_before_counting(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("factors ran past its guard")
        monkeypatch.setattr(cli, "_parse_word", fail)
        monkeypatch.setattr(cli, "distinct_factors", fail)
        code, out, err = run(capsys, ["factors", "ab" * 2**19 + "a"])
        assert code == 3
        assert out == ""
        assert err == "error: factors input has 1048577 letters, over the guard 1048576\n"

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, ["factors"])
        assert code == 2
        assert err.endswith("error: one of the arguments word --max --witness is required\n")

    # argparse draws a group's ( | ) only when its members sit side by side,
    # and would list the three modes as if each were optional
    USAGE = ("usage: ebwt factors [-h] [--json] [--alphabet CHARS] [--guard-cells N]\n"
             "                    (WORD | --max N K | --witness N K)\n")

    @pytest.mark.parametrize("argv", [[], ["abab", "--max", "3", "2"], ["--max", "3"]])
    def test_usage_shows_the_choice_of_mode(self, capsys, argv):
        code, out, err = run(capsys, ["factors", *argv])
        assert (code, out) == (2, "")
        assert err.startswith(self.USAGE)
        assert err.count("\n") == 3

    def test_help_shows_the_choice_of_mode(self, capsys):
        code, out, err = run(capsys, ["factors", "-h"])
        assert (code, err) == (0, "")
        assert out.startswith(self.USAGE + "\n")


class TestDefaultGuards:
    @pytest.mark.parametrize("argv,stdin,default", [
        (["transform", "ab x8388609"], None, 2**24),
        (["invert"], "a" * (2**24 + 1), 2**24),
        (["debruijn", "2", "25", "--least"], None, 2**24),
        (["debruijn", "2", "25", "--from-gamma", "a"], None, 2**24),
        (["semigroup", "a" * 999 + "b", "--action"], None, 10**6),
        (["factors", "ab" * 2**19 + "a"], None, 2**20),
        (["factors", "--max", "19", "2"], None, 2**18),
        (["factors", "--witness", "16777217", "2"], None, 2**24),
    ], ids=["transform", "invert", "debruijn", "debruijn-from-gamma", "semigroup", "factors",
            "factors-max", "factors-witness"])
    def test_just_past_the_default(self, capsys, monkeypatch, argv, stdin, default):
        # Another subcommand's --guard-cells comes first, through the same
        # cached parser: a guard that leaked from it would show in the message.
        other = ["invert", "ab"] if argv[0] == "semigroup" else ["semigroup", "ab", "--action"]
        assert run(capsys, other + ["--guard-cells", "1"])[0] == 3
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", ChunkedStdin(stdin))
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(default) in err


class TestLetterRule:
    """A letter that str.isspace counts, which `invert` would strip and the
    line format would split on, is an input error on every channel."""

    @pytest.mark.parametrize("argv", [
        ["invert", "ab ba"],
        ["invert", "--file", "FILE"],
        ["invert"],
        ["invert", "a\u00a0b"],
        ["transform", '{"necklaces": [{"lyndon": " a"}]}'],
        ["transform", '{"necklaces": [{"lyndon": "a\\u00a0b"}]}'],
        ["factors", "a b"],
        ["debruijn", "2", "1", "--from-gamma", "a b"],
        ["semigroup", "a b", "--syntactic"],
        ["transform", "ab", "--alphabet", " ab"],
        ["transform", "", "--alphabet", "a\u00a0b"],
        ["invert", "ab", "--alphabet", "a b"],
        ["debruijn", "2", "2", "--least", "--alphabet", " x"],
        ["debruijn", "2", "1", "--from-gamma", "ab", "--alphabet", "a\tb"],
        ["semigroup", "ab", "--action", "--alphabet", "a\nb"],
        ["factors", "ab", "--alphabet", "a b"],
    ])
    def test_whitespace_letter_refused(self, capsys, monkeypatch, tmp_path, argv):
        path = tmp_path / "input"
        path.write_text("ab ba\n")
        monkeypatch.setattr(sys, "stdin", ChunkedStdin("ab ba\n"))
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "holds the whitespace letter" in err

    def test_stripped_ends_are_not_letters(self, capsys):
        # whitespace around the invert text is not part of the word
        assert run(capsys, ["invert", " \u00a0ba\n"]) == (0, "ab\n", "")


class TestEmptyAlphabet:
    """An empty --alphabet is refused in every mode that reads one, not taken
    as no --alphabet."""

    @pytest.mark.parametrize("argv", [
        ["transform", "ab"],
        ["transform", ""],
        ["invert", "ba"],
        ["invert", ""],
        ["debruijn", "2", "3", "--least"],
        ["debruijn", "2", "1", "--from-gamma", "ab"],
        ["semigroup", "ab", "--action"],
        ["semigroup", "ab", "--syntactic"],
        ["semigroup", "ab", "--check-iso"],
        ["factors", "ab"],
    ])
    @pytest.mark.parametrize("form", [["--alphabet="], ["--alphabet", ""]])
    @pytest.mark.parametrize("output", [[], ["--json"]])
    def test_empty_alphabet_refused(self, capsys, argv, form, output):
        assert run(capsys, [*argv, *form, *output]) == (
            2, "", "error: --alphabet has no characters\n")


class TestJsonParity:
    @pytest.mark.parametrize("argv,fields", [
        (["transform", "aab\nab\nabb"], {"word": "babbaaba"}),
        (["debruijn", "2", "3", "--count"], {"count": 2}),
        (["debruijn", "2", "3", "--least"], {"word": "aaababbb"}),
        (["semigroup", "ab", "--check-iso"],
         {"action_order": 5, "syntactic_order": 5, "isomorphic": True}),
        (["factors", "abab"], {"distinct_factors": 7}),
        (["factors", "--max", "3", "2"],
         {"n": 3, "k": 2, "max_distinct": 5, "upper_bound": 5, "witness": "aab"}),
        (["factors", "--witness", "5", "2"],
         {"n": 5, "k": 2, "span": 3, "witness": "aaaba",
          "distinct_factors": 11, "lower_bound": 6}),
    ])
    def test_payloads(self, capsys, argv, fields):
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 0
        assert json.loads(out) == fields

    def test_invert_json_round_trips_into_transform(self, capsys):
        code, out, _ = run(capsys, ["invert", "babbaaba", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"necklaces": [
            {"lyndon": "aab", "multiplicity": 1},
            {"lyndon": "ab", "multiplicity": 1},
            {"lyndon": "abb", "multiplicity": 1},
        ]}
        code, out, _ = run(capsys, ["transform", json.dumps(payload)])
        assert code == 0
        assert out == "babbaaba\n"

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, ["invert", "bbaa"])
        _, json_out, _ = run(capsys, ["invert", "bbaa", "--json"])
        entries = json.loads(json_out)["necklaces"]
        rebuilt = [
            e["lyndon"] if e["multiplicity"] == 1
            else f"{e['lyndon']} x{e['multiplicity']}"
            for e in entries
        ]
        assert text_out.splitlines() == rebuilt


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_runs_in_a_row_match_fresh_runs(self, capsys):
        argvs = [
            ["transform", "aab\nab\nabb"],
            ["invert", "babbaaba", "--json"],
            ["debruijn", "2", "3", "--bogus"],
            ["debruijn", "2", "3", "--least", "--alphabet", "01"],
            ["factors", "--max", "3", "2"],
            ["semigroup", "ab", "--check-iso", "--guard-cells", "2"],
            ["invert", "babbaaba"],
            ["factors", "abab", "--json"],
        ]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        assert [run(capsys, argv) for argv in argvs] == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 3, 0, 0]


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, ["transform", "--bogus"])
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 2

    def test_conflicting_modes(self, capsys):
        code, _, _ = run(capsys, ["debruijn", "2", "3", "--least", "--count"])
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_guard_cells_must_be_positive(self, capsys, value):
        code, out, err = run(capsys, ["debruijn", "2", "5", "--least", "--guard-cells", value])
        assert code == 2
        assert out == ""
        assert "positive" in err


class TestOneModeAndOneInput:
    """Every option acts or is refused: exit 2, nothing on stdout, one error
    line, and no input read, no scan, count or generation run first."""

    @staticmethod
    def refused(capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert len([line for line in err.splitlines() if ERROR_LINE.match(line)]) == 1
        return err.splitlines()[-1]

    @pytest.fixture
    def no_work(self, monkeypatch):
        for name in ("_chunks", "distinct_factors", "max_factors_exhaustive",
                     "debruijn_factor_witness", "count_debruijn_words", "least_debruijn_word"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs:
                                pytest.fail(f"{name} ran"))

    @pytest.mark.parametrize("argv", [
        ["abab", "--max", "3", "2"], ["--max", "3", "2", "abab"],
        ["abab", "--witness", "5", "2"], ["--witness", "5", "2", "abab"],
        ["--max", "3", "2", "--witness", "5", "2"],
        ["abab", "--max", "3", "2", "--witness", "5", "2"],
    ])
    def test_factors_takes_one_mode(self, capsys, no_work, argv):
        assert "not allowed with argument" in self.refused(capsys, ["factors", *argv])

    @pytest.mark.parametrize("command", ["transform", "invert"])
    @pytest.mark.parametrize("order", [0, 1])
    def test_text_or_file(self, capsys, no_work, tmp_path, command, order):
        # the file exists, but it is not opened: the argument and the file
        # are two inputs
        path = tmp_path / "input"
        path.write_text("ab\n", encoding="utf-8")
        source = [["ab"], ["--file", str(path)]]
        argv = [command, *source[order], *source[1 - order]]
        assert "not allowed with argument" in self.refused(capsys, argv)

    @pytest.mark.parametrize("argv, mode", [
        (["factors", "--max", "3", "2"], "--max"),
        (["factors", "--witness", "5", "2"], "--witness"),
        (["debruijn", "2", "3", "--count"], "--count"),
    ])
    @pytest.mark.parametrize("alphabet", ["01", "ab", ""])
    def test_alphabet_only_where_a_word_is_read_or_rendered_over_it(
            self, capsys, no_work, argv, mode, alphabet):
        # the witness of --max and --witness renders over a b ...; a count
        # has no letters
        for output in ([], ["--json"]):
            line = self.refused(capsys, [*argv, "--alphabet", alphabet, *output])
            assert line == f"error: --alphabet is not allowed with {mode}"


class TestGuardPastIndexing:
    """A guard past what a sequence can be indexed by is an argument error,
    and a call that the guard admits but memory cannot hold exits 3; none of
    these calls allocates the word."""

    @pytest.mark.parametrize("argv", [
        ["debruijn", "2", "70", "--least", "--guard-cells", "1" + "0" * 25],
        ["factors", "--witness", "1" + "0" * 20, "2", "--guard-cells", "1" + "0" * 28],
        ["debruijn", "2", "5", "--least", "--guard-cells", str(sys.maxsize + 1)],
    ])
    def test_guard_above_maxsize_refused(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --guard-cells: must be at most {sys.maxsize}, "
                            f"got {argv[-1]}\n")

    def test_guard_at_maxsize_is_taken(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "3", "--least",
                                    "--guard-cells", str(sys.maxsize)])
        assert (code, out) == (0, "aaababbb\n")

    def test_out_of_memory_exits_3(self, capsys):
        # 2^62 positions pass the guard; the tuple's own size check refuses
        # them before anything is allocated
        assert run(capsys, ["debruijn", "2", "62", "--least", "--guard-cells", str(2**62)]) == (
            3, "", "error: out of memory\n")


class TestEntryPoint:
    class FullStdout:
        """A stdout whose every write fails as on a full disk; `fileno` is a
        real file's, which the entry point points at devnull."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    # the --help rows: argparse's own print_help drops the error of its
    # write, and exits 0
    @pytest.mark.parametrize("argv", [
        ["debruijn", "2", "3", "--least"], ["debruijn", "2", "3", "--least", "--json"],
        ["--help"], ["factors", "--help"],
    ])
    def test_write_error_is_one_error_line(self, capsys, monkeypatch, tmp_path, argv):
        with open(tmp_path / "stdout", "wb") as file:
            monkeypatch.setattr(sys, "stdout", self.FullStdout(file.fileno()))
            monkeypatch.setattr(sys, "argv", ["ebwt", *argv])
            with pytest.raises(SystemExit) as exit_:
                cli.entry()
            assert exit_.value.code == 1
            assert capsys.readouterr().err == (
                "error: cannot write the output: No space left on device\n")
            os.write(file.fileno(), b"x")  # now devnull's
        assert (tmp_path / "stdout").read_bytes() == b""

    def test_help_on_a_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path):
        class ClosedStdout(self.FullStdout):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        with open(tmp_path / "stdout", "wb") as file:
            monkeypatch.setattr(sys, "stdout", ClosedStdout(file.fileno()))
            monkeypatch.setattr(sys, "argv", ["ebwt", "--help"])
            with pytest.raises(SystemExit) as exit_:
                cli.entry()
            assert exit_.value.code == 1
            assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_with_one_error_line(self):
        env = dict(os.environ, PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]))
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "ebwt.cli", "debruijn", "2", "3",
                                   "--least"], stdout=full, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == b"error: cannot write the output: No space left on device\n"

    def test_closed_stdout_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ebwt.cli", "transform", "ab x40000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # No reader, and 80001 bytes overflow the pipe buffer: writing fails
        # with EPIPE whenever the close lands.
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", ["transform", "invert"])
    def test_closed_stdin_is_an_input_error(self, command):
        # with file descriptor 0 closed, sys.stdin is None
        env = dict(os.environ, PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "ebwt.cli", command],
            capture_output=True, env=env, timeout=60, preexec_fn=lambda: os.close(0),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == b"error: stdin is closed; give the input as an argument or with --file\n"

    def test_unencodable_output_leaves_stdout_empty(self):
        # the output "ab\na\u00e9\n" has an ASCII first line and a second
        # line that ASCII cannot encode
        env = dict(os.environ, PYTHONIOENCODING="ascii",
                   PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "ebwt.cli", "invert", "b\u00e9aa"],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: 'ascii' codec can't encode ")
        assert proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("encoding", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8"}])
    @pytest.mark.parametrize("argv", [
        ["invert", b"bbaa\xff"],
        ["transform", b"ab\nb\xe2\x82b"],
        ["factors", b"\xc3"],
        ["semigroup", b"ab\xffb", "--syntactic"],
        ["debruijn", "2", "1", "--from-gamma", b"ab\xe9"],
        ["invert", "ab", "--alphabet", b"abc\xff"],
    ])
    def test_argv_bytes_refused_like_file(self, capsys, tmp_path, encoding, argv):
        # a byte that is not UTF-8 reaches Python's argv as a lone surrogate
        bad = next(arg for arg in argv if isinstance(arg, bytes))
        path = tmp_path / "input"
        path.write_bytes(bad)
        code, out, err = run(capsys, ["invert", "--file", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: 'utf-8' codec can't decode")
        env = dict(os.environ, PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]),
                   **encoding)
        env.pop("PYTHONUTF8", None)
        proc = subprocess.run([sys.executable, "-m", "ebwt.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err.encode())

    def test_warning_line_under_error_filter(self):
        # the CLI writes its warning line itself, so -W error has no warning
        # to turn into an exception: one line, and exit 0
        env = dict(os.environ, PYTHONPATH=str(Path(ebwt.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ebwt.cli", "semigroup", "abab",
             "--syntactic"],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.stderr == (
            b"warning: abab is not primitive; the action comparison theorem "
            b"assumes a primitive word\n"
        )
        assert proc.stdout == b"syntactic order 9\ngenerators a b\n"
        assert proc.returncode == 0


class TestStartup:
    """Start-up in a fresh interpreter: what `import ebwt.cli` loads, and the
    JSON paths that import `json` only when they run."""

    SRC = str(Path(ebwt.__file__).resolve().parents[1])

    def cold(self, *argv):
        return subprocess.run([sys.executable, "-E", "-s", *argv],
                              capture_output=True, timeout=60)

    def test_import_loads_no_unwanted_module(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "startup_modules.py"
        proc = self.cold(str(script), self.SRC)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.decode().split(": ", 1)[1].split())
        assert "ebwt.cli" in loaded
        assert not loaded & {"array", "dataclasses", "inspect", "json"}

    def run_cli(self, *argv):
        # -E ignores PYTHONPATH, so the child puts the package on sys.path
        code = f"import sys; sys.path.insert(0, {self.SRC!r}); from ebwt.cli import entry; entry()"
        proc = self.cold("-c", code, *argv)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def test_json_output(self):
        assert self.run_cli("invert", "babbaaba", "--json") == (0, (
            '{"necklaces": [{"lyndon": "aab", "multiplicity": 1}, '
            '{"lyndon": "ab", "multiplicity": 1}, {"lyndon": "abb", "multiplicity": 1}]}\n'
        ), "")

    def test_json_input(self):
        payload = '{"necklaces": [{"lyndon": "aab"}, {"lyndon": "ab"}, {"lyndon": "abb"}]}'
        assert self.run_cli("transform", payload) == (0, "babbaaba\n", "")
        assert self.run_cli("transform", '{"necklaces": [') == (
            2, "", "error: line 1: invalid JSON: Expecting value\n")
