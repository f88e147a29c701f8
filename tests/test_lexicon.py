import pytest

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
            assert small_lexicon.contains(word)
        assert "work" in small_lexicon
        assert len(small_lexicon) == 121  # 21 study words + 100 decoys

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("top\nTOP\ntop\n", encoding="utf-8")
        assert load_lexicon(path).words == {"top"}


class TestContains:
    def test_membership(self):
        lex = make_lexicon({"top"})
        assert lex.contains("top")
        assert lex.contains("TOP")
        assert not lex.contains("xyz")
        assert "top" in lex
