"""The reference brand-NER walk, kept as a test oracle.

``_reference_find_all`` is the straightforward n-gram algorithm that
``BrandRecognizer.find_all`` replaced: for every start token it tries
each window from the longest span down and re-runs ``squash`` on the
joined window. It is slow (one full normalisation per window) but
obviously faithful to the matching rules, so the property tests assert
that the production walk returns exactly what this one does.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nlp.brands_ner import (
    _MAX_SCAN_TOKENS,
    BrandMatch,
    BrandRecognizer,
)
from repro.nlp.normalize import normalize_text, squash
from repro.nlp.tokenize import tokenize

#: Alias keys shorter than this require an exact token match (avoid "ee"
#: inside other words).
_SHORT_KEY = 4


def _reference_find_all(recognizer: BrandRecognizer,
                        text: str) -> List[BrandMatch]:
    """Every brand mention, leftmost-longest, non-overlapping."""
    lexicon = recognizer._lexicon
    normalised = normalize_text(text)
    tokens = tokenize(normalised)
    if len(tokens) > _MAX_SCAN_TOKENS:
        tokens = tokens[:_MAX_SCAN_TOKENS]
    matches: List[BrandMatch] = []
    index = 0
    while index < len(tokens):
        matched: Optional[BrandMatch] = None
        for span in range(min(recognizer._max_tokens + 2,
                              len(tokens) - index), 0, -1):
            window = tokens[index:index + span]
            if any("/" in t or t.startswith("http") for t in window):
                # n-grams crossing URLs are never brand phrases; the
                # URL itself is checked as a single token below.
                if span > 1:
                    continue
            key = squash("".join(window))
            entry = lexicon.get(key)
            if entry is None and span == 1 and "." in window[0]:
                # Try the URL's host labels ("netflix.com-billing.xyz").
                for label in window[0].replace("/", ".").split("."):
                    entry = lexicon.get(squash(label))
                    if entry:
                        break
            if entry is None:
                continue
            canonical, alias, _ = entry
            if len(key) < _SHORT_KEY and span == 1:
                # Short aliases must match the token exactly.
                if squash(window[0]) != key:
                    continue
            matched = BrandMatch(
                brand=canonical, matched_alias=alias, start_token=index
            )
            index += span
            break
        if matched is not None:
            matches.append(matched)
        else:
            index += 1
    return matches
