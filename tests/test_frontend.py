import pytest
from hypothesis import given
from hypothesis import strategies as st

from codec_lm import frontend
from codec_lm.errors import ValidationError


def test_consecutive_repetition_removed():
    seq = frontend.text_to_phonemes("aa")
    assert seq == (frontend.symbol_id("a"),)


def test_empty_text_rejected():
    with pytest.raises(ValidationError):
        frontend.text_to_phonemes("")
    with pytest.raises(ValidationError):
        frontend.text_to_phonemes("   ")


def test_unmappable_text_rejected():
    with pytest.raises(ValidationError):
        frontend.text_to_phonemes("!!! ???")


def test_aba_keeps_three_ids():
    seq = frontend.text_to_phonemes("aba")
    assert len(seq) == 3
    assert seq[0] == seq[2] != seq[1]


def test_case_and_unknowns_normalized():
    assert frontend.text_to_phonemes("A!b") == frontend.text_to_phonemes("ab")


def test_digraphs_map_to_single_ids():
    seq = frontend.text_to_phonemes("chat")
    # 'ch' collapses to one id, then 'a', 't'
    assert len(seq) == 3
    assert seq[0] == frontend.symbol_id("ch")


def test_dedup_examples():
    assert frontend.dedup_consecutive([5, 5, 5, 2, 2, 5]) == [5, 2, 5]
    assert frontend.dedup_consecutive([]) == []


def _reference_dedup(ids):
    out = []
    for i in ids:
        if not out or out[-1] != i:
            out.append(i)
    return out


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=50))
def test_dedup_matches_reference_scan(ids):
    assert frontend.dedup_consecutive(ids) == _reference_dedup(ids)


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=50))
def test_dedup_idempotent(ids):
    once = frontend.dedup_consecutive(ids)
    assert frontend.dedup_consecutive(once) == once


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=50))
def test_dedup_no_adjacent_equal(ids):
    out = frontend.dedup_consecutive(ids)
    assert all(a != b for a, b in zip(out, out[1:]))


def test_vocabulary_closure():
    text = "the quick brown fox jumps over 12 lazy dogs"
    seq = frontend.text_to_phonemes(text)
    assert all(0 < i < frontend.VOCAB_SIZE for i in seq)


def test_vocab_table_lists_all_symbols():
    table = frontend.vocab_table().split(",")
    assert len(table) == len(frontend.SYMBOL_TO_ID)
    assert "ch" in table and "a" in table
