import csv
import math
import string

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from keyecho.audio import MAX_MS
from keyecho.errors import MalformedRow
from keyecho.keylog import (ALPHABET, ENTER, HEADER, OTHER, PAIR_CODE, PAIRS,
                            SPACE, KeystrokeEvent, is_word,
                            parse_keylog, session_to_pairs, write_keylog)
from keyecho.lexicon import make_lexicon
from keyecho.model import train

HEAD = ",".join(HEADER)


def write_log(tmp_path, rows, header=HEAD):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestParseKeylog:
    def test_basic_rows(self, tmp_path):
        path = write_log(tmp_path, [
            "t,0,80,84,20,0,0",
            "o,300,390,79,24,0,0",
            "p,700,805,80,25,0,0",
        ])
        events = parse_keylog(path)
        assert [e.key for e in events] == ["t", "o", "p"]
        assert [e.press_ms for e in events] == [0, 300, 700]

    def test_rows_sorted_by_press_time(self, tmp_path):
        path = write_log(tmp_path, [
            "o,300,390,79,24,0,0",
            "t,0,80,84,20,0,0",
        ])
        events = parse_keylog(path)
        assert [e.key for e in events] == ["t", "o"]

    def test_release_before_press(self, tmp_path):
        path = write_log(tmp_path, ["t,100,50,84,20,0,0"])
        with pytest.raises(MalformedRow):
            parse_keylog(path)

    def test_wrong_column_count(self, tmp_path):
        path = write_log(tmp_path, ["t,0,80,84"])
        with pytest.raises(MalformedRow):
            parse_keylog(path)

    def test_unparsable_number(self, tmp_path):
        path = write_log(tmp_path, ["t,zero,80,84,20,0,0"])
        with pytest.raises(MalformedRow):
            parse_keylog(path)

    @pytest.mark.parametrize("press,release", [
        ("nan", "80"), ("0", "inf"), ("-inf", "80"), ("inf", "inf")])
    def test_non_finite_time(self, tmp_path, press, release):
        path = write_log(tmp_path, [f"t,{press},{release},84,20,0,0"])
        with pytest.raises(MalformedRow, match="non-finite"):
            parse_keylog(path)

    @pytest.mark.parametrize("press,release", [
        ("5e12", "5e12"), ("0", "1.7e308"),
        (repr(math.nextafter(MAX_MS, math.inf)),) * 2])
    def test_time_above_max_ms(self, tmp_path, press, release):
        path = write_log(tmp_path, ["a,0,80,65,0,0,0",
                                    f"t,{press},{release},84,20,0,0"])
        with pytest.raises(MalformedRow, match=":3: time above"):
            parse_keylog(path)

    def test_time_at_max_ms(self, tmp_path):
        path = write_log(tmp_path, [f"t,{MAX_MS!r},{MAX_MS!r},84,20,0,0"])
        assert parse_keylog(path)[0].press_ms == MAX_MS

    # The second case leaves the caps column empty.
    @pytest.mark.parametrize("row", ["t,0,80,84,x,0,0", "t,0,80,84,x,,0"])
    def test_scan_code_not_an_integer(self, tmp_path, row):
        with pytest.raises(MalformedRow, match=":2: invalid literal"):
            parse_keylog(write_log(tmp_path, [row]))

    def test_empty_virtual_code_beside_a_scan_code(self, tmp_path):
        events = parse_keylog(write_log(tmp_path, ["t,0,80,,20,0,0"]))
        assert [e.key for e in events] == ["t"]

    def test_field_over_csv_limit(self, tmp_path):
        path = write_log(tmp_path, ["t," + "1" * 131073 + ",80,84,20,0,0"])
        with pytest.raises(MalformedRow, match="field limit"):
            parse_keylog(path)

    def test_bad_header(self, tmp_path):
        path = write_log(tmp_path, ["t,0,80,84,20,0,0"], header="a,b,c")
        with pytest.raises(MalformedRow):
            parse_keylog(path)

    def test_virtual_code_fallback(self, tmp_path):
        path = write_log(tmp_path, [
            ",0,80,84,20,0,0",     # VK 84 = 'T'
            ",300,350,32,0,0,0",   # VK 32 = space
            ",600,650,13,0,0,0",   # VK 13 = enter
            ",900,950,112,0,0,0",  # VK 112 = F1
        ])
        events = parse_keylog(path)
        assert [e.key for e in events] == ["t", "SPACE", "ENTER", "OTHER"]

    def test_uppercase_and_named_keys_canonicalized(self, tmp_path):
        path = write_log(tmp_path, [
            "T,0,80,84,20,0,1",
            "Space,200,250,32,0,0,0",
            "F5,400,450,116,0,0,0",
        ])
        events = parse_keylog(path)
        assert [e.key for e in events] == ["t", "SPACE", "OTHER"]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes((HEAD + "\r\nt,0,80,84,20,0,0\r\n").encode())
        assert [e.key for e in parse_keylog(path)] == ["t"]

    def test_write_parse_roundtrip(self, tmp_path):
        events = (
            KeystrokeEvent("t", 0, 80),
            KeystrokeEvent("o", 300.5, 390),
            KeystrokeEvent("SPACE", 700, 760),
        )
        path = tmp_path / "rt.csv"
        write_keylog(path, events)
        assert parse_keylog(path) == events

    def test_write_parse_roundtrip_keeps_every_digit(self, tmp_path):
        times = [1e-7, 0.1 + 0.2, 123456.789, 1437302.884988707]
        events = tuple(KeystrokeEvent("t", t, t + 60.0) for t in times)
        path = tmp_path / "exact.csv"
        write_keylog(path, events)
        back = parse_keylog(path)
        assert [(e.press_ms, e.release_ms) for e in back] == \
               [(t, t + 60.0) for t in times]

    def test_times_that_g_format_keeps_are_written_in_g_form(self, tmp_path):
        events = (KeystrokeEvent("t", 300.5, 360.5),
                  KeystrokeEvent("o", 1e6, 1e6 + 60))
        path = tmp_path / "short.csv"
        write_keylog(path, events)
        assert path.read_text().splitlines()[1:] == [
            "t,300.5,360.5,84,0,0,0", "o,1e+06,1.00006e+06,79,0,0,0"]


class TestSessionToPairs:
    def test_press_time_differences(self):
        events = (
            KeystrokeEvent("t", 0, 80),
            KeystrokeEvent("o", 300, 390),
            KeystrokeEvent("p", 700, 805),
        )
        assert session_to_pairs(events) == [("t", "o", 300), ("o", "p", 400)]

    def test_single_event(self):
        assert session_to_pairs((KeystrokeEvent("t", 0, 80),)) == []

    def test_boundary_breaks_pair(self):
        events = (
            KeystrokeEvent("t", 0, 80),
            KeystrokeEvent("SPACE", 200, 260),
            KeystrokeEvent("o", 500, 580),
        )
        assert session_to_pairs(events) == []

    def test_pair_count_bound_and_positive_deltas(self):
        events = tuple(KeystrokeEvent("a", 100 * i, 100 * i + 50)
                       for i in range(10))
        pairs = session_to_pairs(events)
        assert len(pairs) <= len(events) - 1
        assert all(d > 0 for _, _, d in pairs)

    def test_sub_millisecond_interval_kept(self):
        events = (KeystrokeEvent("t", 0, 80), KeystrokeEvent("o", 0.5, 90))
        assert session_to_pairs(events) == [("t", "o", 0.5)]

    def test_simultaneous_presses_dropped(self):
        events = (
            KeystrokeEvent("t", 0, 80),
            KeystrokeEvent("o", 0, 90),
        )
        assert session_to_pairs(events) == []


class TestKeyCodes:
    @pytest.mark.parametrize("a", list(ALPHABET))
    def test_every_pair_has_one_code_everywhere(self, a):
        for b in ALPHABET:
            code = PAIR_CODE[a, b]
            assert code == 26 * string.ascii_lowercase.index(a) + \
                   string.ascii_lowercase.index(b)
            assert PAIRS[code] == (a, b)
            seen = np.flatnonzero(~np.isnan(train([(a, b, 100.0)]).pair_means))
            assert seen.tolist() == [code]
            index = make_lexicon([a + b]).of_length(2)
            assert index.pair_codes[0][0] == code

    def test_pair_tables_are_inverse(self):
        assert len(PAIRS) == len(PAIR_CODE) == 26 * 26
        assert [PAIR_CODE[pair] for pair in PAIRS] == list(range(26 * 26))

    def test_virtual_codes_round_trip_with_the_key_column_blank(self,
                                                                 tmp_path):
        keys = list(ALPHABET) + [SPACE, ENTER, OTHER]
        events = tuple(KeystrokeEvent(key, 100.0 * i, 100.0 * i + 50)
                       for i, key in enumerate(keys))
        path = tmp_path / "log.csv"
        write_keylog(path, events)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        codes = [int(row[3]) for row in rows[1:]]
        assert codes == [ord(key.upper()) for key in ALPHABET] + [32, 13, 0]
        for row in rows[1:]:
            row[0] = ""
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert [e.key for e in parse_keylog(path)] == keys


def reference_is_word(text):
    """Independent of keylog: non-empty, and every character in a-z."""
    return text != "" and all(c in "abcdefghijklmnopqrstuvwxyz" for c in text)


class TestIsWord:
    @given(st.one_of(st.text("azAZ09 \u212a\u00df\u0130\u00e9\u0131",
                             max_size=6),
                     st.text(max_size=6)))
    @example("")
    @example("\u212a")      # KELVIN SIGN, which lowercases to "k"
    @example("stra\u00dfe")  # sharp s, which uppercases to "SS"
    @example("Top")
    @example("ab1")
    @example("top")
    def test_matches_reference(self, text):
        assert is_word(text) == reference_is_word(text)
