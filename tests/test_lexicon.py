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
        assert lex.dropped == 1

    def test_whitespace_only_is_empty(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("  \n\n\t\n", encoding="utf-8")
        with pytest.raises(EmptyLexicon):
            load_lexicon(path)

    def test_shipped_lexicon_has_study_words(self, small_lexicon, study_words):
        for word in study_words:
            assert word in small_lexicon
        assert "work" in small_lexicon
        assert len(small_lexicon) == 121  # 21 study words + 100 decoys

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
        assert (loaded.words, loaded.dropped) == (made.words, made.dropped)


class TestMakeLexicon:
    def test_keeps_words_of_letters_and_counts_the_rest(self):
        lex = make_lexicon({"t1p", "Top", "tép"})
        assert lex.words == {"top"}
        assert lex.dropped == 2


class TestContains:
    def test_membership(self):
        lex = make_lexicon({"top"})
        assert "top" in lex
        assert "TOP" in lex
        assert "xyz" not in lex
