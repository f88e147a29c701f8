import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyecho.errors import EmptyLexicon
from keyecho.lexicon import load_lexicon, make_lexicon


class TestLoadLexicon:
    def test_normalization_and_dropping(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("Top\nwork\ncan't\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.words == {"top", "work"}

    def test_whitespace_only_is_empty(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("  \n\n\t\n", encoding="utf-8")
        with pytest.raises(EmptyLexicon):
            load_lexicon(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("\ufeffwork\nmother\nword", encoding="utf-8")
        assert load_lexicon(path).words == {"work", "mother", "word"}

    def test_shipped_lexicon_has_study_words(self, small_lexicon, study_words):
        for word in study_words:
            assert word in small_lexicon.words
        assert "work" in small_lexicon.words
        assert len(small_lexicon.words) == 121  # 21 study words + 100 decoys

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("top\nTOP\ntop\n", encoding="utf-8")
        assert load_lexicon(path).words == {"top"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(" \tabzAZ1'é\x00", max_size=5), max_size=8))
    def test_equals_make_lexicon_over_its_lines(self, tmp_path_factory,
                                                lines):
        path = tmp_path_factory.mktemp("lex") / "words.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        made = make_lexicon(lines)
        if not made.words:
            with pytest.raises(EmptyLexicon):
                load_lexicon(path)
            return
        loaded = load_lexicon(path)
        assert loaded.words == made.words


class TestMakeLexicon:
    def test_keeps_only_words_of_letters(self):
        lex = make_lexicon({"t1p", "Top", "tép"})
        assert lex.words == {"top"}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(" \taZ1\u212a\u00df\u0130\u00e9",
                            max_size=4), max_size=10))
    def test_keeps_exactly_the_entries_of_letters_a_to_z(self, entries):
        normal = [e.strip().lower() for e in entries]
        letters = set(string.ascii_lowercase)
        words = {w for w in normal if w and letters.issuperset(w)}
        lex = make_lexicon(entries)
        assert lex.words == words

    def test_kelvin_sign_lowercases_to_ascii_and_is_kept(self):
        # U+212A KELVIN SIGN lowercases to ASCII "k".
        lex = make_lexicon(["\u212aey"])
        assert lex.words == {"key"}

    def test_sharp_s_digits_and_inner_spaces_are_dropped(self):
        lex = make_lexicon(["straße", "ab1", "two words", " top "])
        assert lex.words == {"top"}

    def test_blank_entries_are_skipped(self):
        lex = make_lexicon(["", "  ", "\t", "top", ""])
        assert lex.words == {"top"}
