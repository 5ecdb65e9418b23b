"""Rule-based text to pseudo-phoneme conversion.

Pseudo-phonemes are normalized characters (plus a few digraphs) mapped onto a
fixed vocabulary of size VOCAB_SIZE. Id 0 is reserved: no symbol maps to it.
The phoneme-EOS id used by the language models is VOCAB_SIZE itself (one past
the vocabulary, see lm_core).
"""

from .errors import ValidationError

VOCAB_SIZE = 64

# digraphs first (longest match wins), then single characters
_DIGRAPHS = ("ch", "sh", "th")
_SINGLES = "abcdefghijklmnopqrstuvwxyz0123456789"

_SYMBOLS = list(_DIGRAPHS) + list(_SINGLES)
assert len(_SYMBOLS) + 1 <= VOCAB_SIZE

SYMBOL_TO_ID = {sym: i + 1 for i, sym in enumerate(_SYMBOLS)}
ID_TO_SYMBOL = {i: s for s, i in SYMBOL_TO_ID.items()}


def vocab_table() -> str:
    """Serializable description of the symbol inventory (for checkpoints)."""
    return ",".join(_SYMBOLS)


def dedup_consecutive(ids):
    """Collapse runs of equal adjacent ids, preserving order."""
    out = []
    prev = None
    for i in ids:
        if i != prev:
            out.append(i)
        prev = i
    return out


def symbol_id(symbol: str) -> int:
    """Id of a single vocabulary symbol; raises for unknown symbols."""
    try:
        return SYMBOL_TO_ID[symbol]
    except KeyError:
        raise ValidationError(f"unknown frontend symbol {symbol!r}") from None


def text_to_phonemes(text: str) -> tuple:
    """The phoneme ids of `text`: lowercase, map characters/digraphs to ids,
    drop unknowns, dedup runs."""
    if not text or not text.strip():
        raise ValidationError("text is empty after trimming whitespace")
    lowered = text.strip().lower()
    ids = []
    pos = 0
    while pos < len(lowered):
        pair = lowered[pos : pos + 2]
        if pair in SYMBOL_TO_ID:
            ids.append(SYMBOL_TO_ID[pair])
            pos += 2
            continue
        ch = lowered[pos]
        if ch in SYMBOL_TO_ID:
            ids.append(SYMBOL_TO_ID[ch])
        pos += 1
    ids = dedup_consecutive(ids)
    if not ids:
        raise ValidationError(f"text {text!r} maps to an empty phoneme sequence")
    return tuple(ids)
