import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ebwt
from ebwt import cli, semigroups
from ebwt.cli import main

from helpers import naive_primitive, necklace_closure_order


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

    def test_repeated_lines_merge(self, capsys):
        code, out, _ = run(capsys, ["transform", "ab x2\naab\nab", "--json"])
        assert code == 0
        code, merged, _ = run(capsys, ["transform", "aab\nab x3", "--json"])
        assert code == 0
        assert out == merged == '{"word": "babbbaaaa"}\n'
        code, out, _ = run(capsys, ["transform", "ba\nab x2", "--canonicalize"])
        assert code == 0
        assert out == "bbbaaa\n"

    def test_output_guard_edge(self, capsys):
        code, out, _ = run(capsys, ["transform", "ab x3", "--guard-cells", "6"])
        assert code == 0
        assert out == "bbbaaa\n"
        code, out, err = run(capsys, ["transform", "ab x3", "--guard-cells", "5"])
        assert code == 3
        assert out == ""
        assert err == "error: transform output needs 6 letters, over the guard 5\n"

    def test_output_guard_refuses_before_ranking(self, capsys, monkeypatch):
        def fail(m):
            raise AssertionError("transform ran past its guard")
        monkeypatch.setattr(cli, "transform", fail)
        code, out, err = run(capsys, ["transform", "ab x1000000000"])
        assert code == 3
        assert out == ""
        assert "2000000000 letters" in err

    def test_output_guard_refuses_before_canonicalizing(self, capsys, monkeypatch):
        def fail(w):
            raise AssertionError("an entry was canonicalized past the guard")
        monkeypatch.setattr(cli, "lyndon_representative", fail)
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
        # the reference splits the stripped text, numbering from its first line
        expected: Counter = Counter()
        for lineno, line in enumerate(text.strip().splitlines(), start=1):
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
        def fail(text):
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
        assert err == (f"error: transform JSON input has {len(document)} characters, "
                       f"over the {longest} that the guard 1000 allows\n")

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    def test_json_length_bound(self, capsys, monkeypatch, tmp_path, chunk):
        # a document of guard + INPUT_CHUNK characters is parsed and judged by
        # its output; one character more is refused by its length
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        longest = 100 + chunk
        bare = '{"necklaces": [{"lyndon": "aab"}, {"lyndon": "ab"}, {"lyndon": "abb"}]}'
        path = tmp_path / "multiset.json"
        for padding, expected in ((-1, (0, "babbaaba\n", "")), (0, (0, "babbaaba\n", "")),
                                  (1, (3, "", f"error: transform JSON input has {longest + 1} "
                                              f"characters, over the {longest} that the "
                                              f"guard 100 allows\n"))):
            document = bare[:-1] + " " * (longest + padding - len(bare)) + bare[-1]
            path.write_text("\n " + document + " \n", encoding="utf-8")
            for source in ([document], ["--file", str(path)]):
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

    def test_non_lyndon_entry_rejected(self, capsys):
        code, _, err = run(capsys, ["transform", "ba"])
        assert code == 2
        assert "ba" in err and "Lyndon" in err

    def test_canonicalize_accepts_rotations(self, capsys):
        code, out, _ = run(capsys, ["transform", "ba", "--canonicalize"])
        assert code == 0
        assert out == "ba\n"

    def test_non_primitive_always_rejected(self, capsys):
        code, _, err = run(capsys, ["transform", "abab", "--canonicalize"])
        assert code == 2
        assert "abab" in err and "primitive" in err

    def test_parse_error_names_line(self, capsys):
        code, _, err = run(capsys, ["transform", "aab\nab x\nabb"])
        assert code == 2
        assert "line 2" in err

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

    def test_character_outside_alphabet(self, capsys):
        code, _, err = run(capsys, ["invert", "abc", "--alphabet", "ab"])
        assert code == 2
        assert "'c'" in err

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

    def test_input_guard_refuses_before_parsing(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("invert ran past its guard")
        monkeypatch.setattr(cli, "_parse_word", fail)
        monkeypatch.setattr(cli, "inverse_transform", fail)
        monkeypatch.setattr(sys, "stdin", ChunkedStdin("ab" * 2**23 + "a\n"))
        code, out, err = run(capsys, ["invert"])
        assert code == 3
        assert out == ""
        assert err == "error: invert input has 16777217 letters, over the guard 16777216\n"

    def test_input_guard_bounds_reading(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("invert ran past its guard")
        monkeypatch.setattr(cli, "_parse_word", fail)
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
        assert err == "error: invert input has 2000001 letters, over the guard 1000\n"

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
        assert err == "error: invert input has 8 letters, over the guard 7\n"

    @pytest.mark.parametrize("chunk", [1, 2, 5, 64])
    def test_read_stripped_counts_like_strip(self, monkeypatch, chunk):
        monkeypatch.setattr(cli, "INPUT_CHUNK", chunk)
        rng = random.Random(chunk)
        for _ in range(200):
            text = "".join(rng.choice("ab \n\t\r") for _ in range(rng.randint(0, 40)))
            # stdin is read with universal newlines
            stripped = text.replace("\r\n", "\n").replace("\r", "\n").strip()
            for guard in (1, len(stripped) - 1, len(stripped), 100):
                expected = stripped if len(stripped) <= guard else ""
                monkeypatch.setattr(sys, "stdin", ChunkedStdin(text))
                assert cli._read_stripped(cli._chunks(STDIN), guard) == (expected, len(stripped))


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
    ])
    def test_huge_power_refused_without_building_it(self, capsys, argv, power):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert power in err

    def test_from_gamma_huge_span_is_an_input_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["debruijn", "7", "30000000", "--from-gamma", "abcdefg"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == "error: word length 7 is not 7^30000000\n"

    def test_alphabet_rendering(self, capsys):
        code, out, _ = run(capsys, ["debruijn", "2", "3", "--least",
                                    "--alphabet", "01"])
        assert code == 0
        assert out == "00010111\n"

    def test_alphabet_size_mismatch(self, capsys):
        code, _, err = run(capsys, ["debruijn", "3", "2", "--least",
                                    "--alphabet", "01"])
        assert code == 2

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
        code, out, err = run(capsys, ["semigroup", word, mode, "--table"])
        assert code == 2
        assert out == ""
        assert err == f"error: semigroup word {word!r} holds whitespace\n"
        # the same letter brought in through --alphabet, which the word
        # need not use
        code, out, err = run(capsys, ["semigroup", "ab", "--alphabet", word, mode, "--table"])
        assert code == 2
        assert out == ""
        assert err == f"error: semigroup alphabet {word!r} holds whitespace\n"

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

    @pytest.mark.parametrize("mode, closed", [("--action", 1), ("--syntactic", 1),
                                              ("--check-iso", 2)])
    def test_closure_decides_above_the_bound(self, capsys, closures, mode, closed):
        # "aabab" closes to 31 elements, 5^2 + 1 plus its 5 repeated cyclic
        # factors a, b, ab, ba and aba: above the bound 26 the closed-form
        # order decides, so no closure runs below a guard of 31
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

    def test_non_primitive_syntactic_guarded_inside_the_closure(self, capsys,
                                                                closures):
        # "abab" closes to 9 elements, under its length squared plus one
        for guard, expected in (("8", 3), ("9", 0)):
            code, _, err = run(capsys, ["semigroup", "abab", "--syntactic",
                                        "--guard-cells", guard])
            assert code == expected
            assert err.startswith("warning: abab is not primitive")
        assert len(closures) == 2
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra", [["--action"], ["--syntactic"], ["--action", "--json"],
                                       ["--syntactic", "--json"]])
    def test_table_refused_before_either_closure(self, capsys, monkeypatch, extra):
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

    @pytest.mark.parametrize("word, mode, closed", [("abab", "--syntactic", 1),
                                                    ("aabab", "--check-iso", 2)])
    def test_table_without_closed_form_closes(self, capsys, closures, word, mode, closed):
        # not primitive, or no table printed: the closures run as before
        code, _, _ = run(capsys, ["semigroup", word, mode, "--table"])
        assert code == 0 and len(closures) == closed

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


class TestEntryPoint:
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

    def test_library_warning_under_error_filter(self):
        # -W error would turn the warning into an exception; the CLI still
        # prints it as one line and exits 0.
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
        assert not loaded & {"dataclasses", "inspect", "json"}

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
