from graphforge.words import Word, NormalForm, free_reduce


def test_parse_roundtrip():
    w = Word.parse("a b^-2 c")
    assert w == Word([("a", 1), ("b", -1), ("b", -1), ("c", 1)])
    assert str(w) == "a b^-2 c"
    assert Word.parse("1") == Word()
    assert str(Word()) == "1"


def test_inverse_and_product():
    w = Word.parse("a b")
    assert w.inverse() == Word.parse("b^-1 a^-1")
    assert w * w.inverse() == Word.parse("a b b^-1 a^-1")
    assert ~w == w.inverse()
    assert w.power(-2) == Word.parse("b^-1 a^-1 b^-1 a^-1")


def test_free_reduce():
    assert free_reduce(Word.parse("a b b^-1")) == Word.parse("a")
    assert free_reduce(Word.parse("a a^-1")) == Word()
    assert free_reduce(Word.parse("a b^-1 b a^-1 c")) == Word.parse("c")


def test_normal_form_equals_and_hashes_like_its_word():
    for text in ("1", "a", "a b^-2 c"):
        w = Word.parse(text)
        nf = NormalForm(w)
        assert nf == w and w == nf
        assert hash(nf) == hash(w)
        assert {w: text}[nf] == text
    assert NormalForm(Word.parse("a")) != Word.parse("a^-1")
