"""Brand named-entity recognition with evasion-robust matching.

Off-the-shelf NER misses ``N3tfl!x`` (§3.3.6); this recogniser matches the
brand alias lexicon against *normalised* text (leet/homoglyph undone),
using multi-word phrase matching over squashed keys, and ranks
candidates by match length so "State Bank of India" beats "Bank".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..world.brands import BrandRegistry, default_brands
from .normalize import (
    MAX_NORMALIZE_CHARS,
    alnum,
    batch_squash,
    fold_token,
    normalize_text,
    squash,
    token_memo,
)
from .tokenize import tokenize

#: Pathological-input budget: the n-gram walk scans at most this many
#: tokens. Real SMS texts are tens of tokens; a megabyte of junk that
#: slipped past quarantine must not turn the O(tokens × max_ngram) walk
#: into a run-stalling loop.
_MAX_SCAN_TOKENS = 20_000

#: Per-token squash ingredients: the folded key; the plain key, or None
#: when the token has a letter (every window holding it folds); whether
#: the token is a URL; its squashed host labels (empty without a dot).
_TokenKeys = Tuple[str, Optional[str], bool, Tuple[str, ...]]


def _compute_token_keys(token: str) -> _TokenKeys:
    folded = alnum(fold_token(token))
    plain = None
    if not any(ch.isalpha() for ch in token):
        plain = alnum(token.lower())
    labels: Tuple[str, ...] = ()
    if "." in token:
        labels = tuple(squash(label)
                       for label in token.replace("/", ".").split("."))
    # Most tokens are their own folded key; keep one copy in the memo.
    return (token if folded == token else folded, plain,
            "/" in token or token.startswith("http"), labels)


_token_keys = token_memo(_compute_token_keys)


@dataclass(frozen=True)
class BrandMatch:
    """One recognised brand mention."""

    brand: str
    matched_alias: str
    start_token: int


class BrandRecognizer:
    """Lexicon NER over normalised token n-grams."""

    def __init__(self, registry: Optional[BrandRegistry] = None):
        self._registry = registry or default_brands()
        #: squashed alias -> (canonical name, original alias, token length)
        self._lexicon: Dict[str, Tuple[str, str, int]] = {}
        self._max_tokens = 1
        # One batched squash pass over the whole alias lexicon instead of
        # a per-alias call — every annotator construction pays this cost.
        alias_forms = self._registry.all_alias_forms()
        aliases = list(alias_forms)
        for alias, key in zip(aliases, batch_squash(aliases)):
            canonical = alias_forms[alias]
            if not key:
                continue
            token_count = max(1, len(alias.split()))
            self._max_tokens = max(self._max_tokens, token_count)
            existing = self._lexicon.get(key)
            # Prefer the longest original alias for a squashed key.
            if existing is None or len(alias) > len(existing[1]):
                self._lexicon[key] = (canonical, alias, token_count)
        #: Every prefix of every key: a growing window stops once its key
        #: leaves this set.
        self._prefixes = frozenset(
            key[:end] for key in self._lexicon for end in range(len(key) + 1)
        )

    def find_all(self, text: str) -> List[BrandMatch]:
        """Every brand mention, leftmost-longest, non-overlapping.

        A window's key is ``squash("".join(window))``, built here from
        per-token keys instead of re-normalising every window: the
        folded keys concatenate when any token of the window has a
        letter (so ``7`` beside ``eleven`` is leet-mapped), the plain
        keys otherwise. Windows joined beyond ``MAX_NORMALIZE_CHARS``
        take ``squash`` itself, whose truncation fixes their key for
        every longer window. Each window grows from one token and stops
        once its key is no lexicon prefix. Short aliases ("ee", "o2")
        therefore match only whole tokens or whole multi-token windows,
        never a piece of a longer word.
        """
        tokens = tokenize(normalize_text(text))[:_MAX_SCAN_TOKENS]
        keys = [_token_keys(token) for token in tokens]
        lexicon, prefixes = self._lexicon, self._prefixes
        matches: List[BrandMatch] = []
        index = 0
        while index < len(tokens):
            best: Optional[Tuple[int, Tuple[str, str, int]]] = None
            alpha, folded, plain, length = False, "", "", 0
            capped: Optional[str] = None
            for span in range(1, min(self._max_tokens + 2,
                                     len(tokens) - index) + 1):
                token = tokens[index + span - 1]
                token_folded, token_plain, is_url, labels = \
                    keys[index + span - 1]
                if is_url and span > 1:
                    # n-grams crossing URLs are never brand phrases.
                    break
                length += len(token)
                if length > MAX_NORMALIZE_CHARS:
                    if capped is None:
                        capped = squash("".join(tokens[index:index + span]))
                    key = capped
                else:
                    alpha = alpha or token_plain is None
                    folded += token_folded
                    if not alpha:
                        plain += token_plain
                    key = folded if alpha else plain
                entry = lexicon.get(key)
                if entry is None and span == 1:
                    # Try the URL's host labels ("netflix.com-billing.xyz").
                    entry = next((lexicon[label] for label in labels
                                  if label in lexicon), None)
                if entry is not None:
                    best = (span, entry)
                if is_url:
                    break
                if capped is not None:
                    if entry is None:
                        break
                elif folded not in prefixes and (alpha or
                                                 plain not in prefixes):
                    break
            if best is None:
                index += 1
                continue
            span, (canonical, alias, _) = best
            matches.append(BrandMatch(
                brand=canonical, matched_alias=alias, start_token=index
            ))
            index += span
        return matches

    def find_primary(self, text: str) -> Optional[str]:
        """The impersonated brand: the first, longest-alias mention."""
        matches = self.find_all(text)
        if not matches:
            return None
        # First mention wins; ties broken by alias length (specificity).
        best = min(
            matches,
            key=lambda m: (m.start_token, -len(m.matched_alias)),
        )
        return best.brand
