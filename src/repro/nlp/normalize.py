"""Leetspeak / homoglyph normalisation.

Scammers spell brands as ``N3tfl!x`` or ``Amaz0n`` to slip past keyword
filters; off-the-shelf NER misses these (§3.3.6). Normalisation maps
look-alike digits/symbols back to letters and strips combining marks so
the brand lexicon can match. The mapping is deliberately conservative —
it only rewrites characters *inside* alphabetic tokens, so genuine codes
("OTP 123456") survive untouched.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, TypeVar

T = TypeVar("T")

#: Look-alike characters and the letters they stand in for.
LEET_MAP: Dict[str, str] = {
    "0": "o", "1": "l", "3": "e", "4": "a", "5": "s", "7": "t", "8": "b",
    "9": "g", "!": "i", "@": "a", "$": "s", "€": "e", "|": "l",
}

#: Homoglyphs from other scripts used in squatting domains.
HOMOGLYPH_MAP: Dict[str, str] = {
    "а": "a", "е": "e", "о": "o", "р": "p", "с": "c", "х": "x", "у": "y",
    "і": "i", "ѕ": "s", "ɑ": "a", "ı": "i", "ℓ": "l",
}

_TOKEN_RE = re.compile(r"\S+")

#: Pathological-input budget: normalisation inspects at most this many
#: characters per text. Real SMS bodies are under a kilobyte; anything a
#: megabyte long is hostile, and the quarantine layer has usually
#: diverted it already — this cap is the backstop that keeps the regex
#: walk bounded even for inputs that reach the hot path directly. The
#: batch variants apply the identical truncation, preserving the
#: batch ≡ per-record equality the property tests enforce.
MAX_NORMALIZE_CHARS = 65_536


def strip_accents(text: str) -> str:
    """Remove combining marks: ``café`` → ``cafe``."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _has_letters(token: str) -> bool:
    return any(ch.isalpha() for ch in token)


def _is_code_like(token: str) -> bool:
    """Pure digits / short digit groups are codes, not disguised words."""
    stripped = token.strip(".,:;!?")
    return stripped.isdigit()


def normalize_token(token: str) -> str:
    """Undo leet/homoglyph substitutions inside one token."""
    if _is_code_like(token) or not _has_letters(token):
        return token.lower()
    return fold_token(token)


def fold_token(token: str) -> str:
    """The leet/homoglyph map plus accent strip, applied unconditionally.

    :func:`normalize_token` applies it only to tokens with letters;
    brand NER also needs it for letter-free tokens, because ``7`` next to
    ``eleven`` is leet once the two are joined.
    """
    chars = []
    for ch in token:
        lower = ch.lower()
        if lower in HOMOGLYPH_MAP:
            chars.append(HOMOGLYPH_MAP[lower])
        elif ch in LEET_MAP:
            chars.append(LEET_MAP[ch])
        else:
            chars.append(lower)
    return strip_accents("".join(chars))


def normalize_text(text: str) -> str:
    """Normalise every token of a text, preserving whitespace shape.

    Inputs beyond ``MAX_NORMALIZE_CHARS`` are truncated first — a
    bounded-cost guarantee for adversarial megabyte bodies.
    """
    if len(text) > MAX_NORMALIZE_CHARS:
        text = text[:MAX_NORMALIZE_CHARS]
    return _TOKEN_RE.sub(_normalize_match, text)


#: Tokens longer than this bypass the token memos, so a memo holds at
#: most ``MEMO_TOKENS`` × 64 characters of keys even when hostile input
#: carries tokens up to ``MAX_NORMALIZE_CHARS`` long. Real SMS tokens fit:
#: the longest token in any of the three benchmark workloads (seed 7726)
#: is 55 characters, and 2.2% of token lookups exceed 32 characters.
MEMO_TOKEN_CHARS = 64

#: Entries per token memo. On the 6,818 texts of a 480-campaign world,
#: 1,024 entries per memo miss 12% of normalisation and 8% of NER key
#: lookups (4,096 entries: 7% and 5%, and brand NER about 0.1 s faster
#: per world) but retain 0.6 MB across both memos instead of 2.5 MB:
#: peak RSS after one such world is 186 MB, as without memos (188 MB at
#: 4,096).
MEMO_TOKENS = 1_024


def token_memo(compute: Callable[[str], T]) -> Callable[[str], T]:
    """``compute`` behind a bounded LRU for tokens of at most
    ``MEMO_TOKEN_CHARS`` characters.

    Corpora repeat the same words endlessly ("your", "parcel", brand
    names), so per-token work is paid once per distinct token. The memo
    is module state: it never travels with a pickled annotator.
    """
    cached = lru_cache(maxsize=MEMO_TOKENS)(compute)

    def lookup(token: str) -> T:
        if len(token) > MEMO_TOKEN_CHARS:
            return compute(token)
        return cached(token)

    return lookup


def _normalize_sharing(token: str) -> str:
    # Most tokens normalise to themselves; keep one copy in the memo.
    normalized = normalize_token(token)
    return token if normalized == token else normalized


_memo_normalize_token = token_memo(_normalize_sharing)


def _normalize_match(match: "re.Match[str]") -> str:
    return _memo_normalize_token(match.group(0))


def alnum(text: str) -> str:
    """Only the alphanumeric characters of ``text``."""
    return "".join(ch for ch in text if ch.isalnum())


def squash(text: str) -> str:
    """Lowercase and drop every non-alphanumeric character.

    ``"N3tfl!x"`` → ``"netflix"``; the comparison key of brand matching.
    """
    return alnum(normalize_text(text))


# -- batched normalisation ----------------------------------------------------
#
# Per-record `squash` pays the regex-engine entry cost once per text. The
# batch variants below make ONE compiled-regex pass over the whole corpus
# joined on a sentinel, sharing the per-token memo of `normalize_text` —
# and are proven token-for-token identical to the per-record functions
# by the property tests in ``tests/test_properties.py``.

#: Joins texts for the single-pass batch walk. U+001E (record separator)
#: cannot be produced by normalisation (NFKD never emits it and the
#: mapping tables do not contain it), and as a standalone token it
#: normalises to itself, so it survives the pass as a split point.
BATCH_SENTINEL = "\n\x1e\n"


def batch_normalize(texts: Sequence[str]) -> List[str]:
    """``[normalize_text(t) for t in texts]`` in one regex pass.

    Texts that themselves contain the sentinel character (possible only
    in adversarial input; no generator emits it) fall back to the
    per-record function — correctness over batching.
    """
    if not texts:
        return []
    # Identical truncation to normalize_text, BEFORE the sentinel join —
    # required for batch ≡ per-record equality on oversized inputs.
    texts = [t if len(t) <= MAX_NORMALIZE_CHARS
             else t[:MAX_NORMALIZE_CHARS] for t in texts]
    fallback = {i: normalize_text(t)
                for i, t in enumerate(texts) if "\x1e" in t}
    if len(fallback) == len(texts):
        return [fallback[i] for i in range(len(texts))]
    batched = [t for i, t in enumerate(texts) if i not in fallback]
    joined = _TOKEN_RE.sub(_normalize_match, BATCH_SENTINEL.join(batched))
    pieces = iter(joined.split(BATCH_SENTINEL))
    return [fallback[i] if i in fallback else next(pieces)
            for i in range(len(texts))]


def batch_squash(texts: Sequence[str]) -> List[str]:
    """``[squash(t) for t in texts]`` via the single-pass batch walk."""
    return [alnum(piece) for piece in batch_normalize(texts)]
