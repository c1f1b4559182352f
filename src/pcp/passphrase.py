"""Word-sequence passphrases: generation, text form, and the channel id.

A passphrase is an ordered list of wordlist words. The first word selects
the rendezvous channel (its wordlist index, 0..2047); the full sequence is
the shared secret fed to the key exchange. The text form joins words with
"-" so it survives copy and paste as a single shell token.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidArgument, PassphraseParseError
from .wordlist import load_wordlist

SEPARATOR = "-"
MIN_WORDS = 2  # one channel word plus at least one secret word
DEFAULT_WORD_COUNT = 4


@dataclass(frozen=True)
class Passphrase:
    """An ordered, validated word sequence."""

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.words) < MIN_WORDS:
            raise InvalidArgument(
                f"a passphrase needs at least {MIN_WORDS} words, got {len(self.words)}"
            )
        wl = load_wordlist()
        for w in self.words:
            if w not in wl:
                raise InvalidArgument(f"word {w!r} is not in the wordlist")

    def render(self) -> str:
        """Canonical text form: words joined with '-'."""
        return SEPARATOR.join(self.words)

    def secret_bytes(self) -> bytes:
        """ASCII bytes of the canonical rendering, the key-exchange input."""
        return self.render().encode("ascii")

    def __str__(self) -> str:
        return self.render()


def generate_passphrase(
    word_count: int = DEFAULT_WORD_COUNT, rng: random.Random | None = None
) -> Passphrase:
    """Draw ``word_count`` words uniformly and independently (repeats allowed)."""
    if word_count < MIN_WORDS:
        raise InvalidArgument(f"word_count must be >= {MIN_WORDS}, got {word_count}")
    if rng is None:
        rng = random.SystemRandom()
    wl = load_wordlist()
    words = tuple(wl.words[rng.randrange(len(wl))] for _ in range(word_count))
    return Passphrase(words)


def parse_passphrase(text: str) -> Passphrase:
    """Decode the dash-joined text form, naming any unknown token."""
    tokens = [t for t in text.strip().split(SEPARATOR) if t]
    if len(tokens) < MIN_WORDS:
        raise PassphraseParseError(
            f"expected at least {MIN_WORDS} dash-separated words, got {len(tokens)}"
        )
    wl = load_wordlist()
    for t in tokens:
        if t not in wl:
            raise PassphraseParseError(f"unknown word {t!r}")
    return Passphrase(tuple(tokens))


def channel_id(p: Passphrase) -> int:
    """Wordlist index of the first word; selects the rendezvous channel."""
    return load_wordlist().index_of(p.words[0])
