"""Proxy text measures over generated summaries.

Five measures: Flesch reading ease, reading time, sentiment polarity,
subjectivity, and regard. The first four are deterministic pure functions of
the text, measured here. Regard comes from an external classifier, which
backends.RegardClient calls; it is simply absent when no classifier is
configured or its request fails.

Reading ease, polarity and subjectivity come from one pass over the chunks of
a text: its whitespace-separated words, punctuation attached. No part of a
measure crosses whitespace: words, sentiment tokens, the terminal punctuation
that ends a sentence and the abbreviation before it each lie inside one chunk.
So the facts of each distinct chunk are computed once and kept in a plain
dict of at most CHUNK_MEMO chunks, emptied when full, and the pass adds them
up in text order. summary_lines runs the pass once per summary, as the step
that `run`, `summarize` and `measure` map over their summaries, which may
spread them over the worker processes of backends.cpu_map, each with its own
memo, or over the threads that fetch summaries from an HTTP backend, which
share one: two threads that miss one chunk at once both work out its facts,
which are equal, and the memo keeps one.

The syllable rules, sentence-boundary abbreviations, and sentiment lexicon
ship as JSON assets in hirefair/data so scores are reproducible across
installations. The lexicon is a curated subset of common evaluative
vocabulary; coverage gaps lower sensitivity to wording changes but never
change what a returned score means.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from hirefair.records import encode_line, from_row, read_jsonl, to_row, write_jsonl

_DATA_DIR = Path(__file__).parent / "data"

#: Default per-character reading time. Only between-group differences enter
#: the t-tests, which are invariant under any common positive scaling, so the
#: exact constant does not affect test outcomes.
READING_MS_PER_CHAR = 14.69

MEASURES_SCHEMA_VERSION = 2

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*")
_TOKEN_RE = re.compile(r"[a-z0-9']+")
_CHUNK_RE = re.compile(r"\S+")
_WORD_CHARS_RE = re.compile(r"[A-Za-z.]+")
_NON_LETTER_RE = re.compile(r"[^a-z]")


class TextMetricsError(Exception):
    """Raised for texts that violate a measure's preconditions."""


class NoWordError(TextMetricsError):
    """A text without a word, which has no reading ease."""

    def __init__(self):
        super().__init__("reading ease needs at least one word")


@lru_cache(maxsize=1)
def _text_rules() -> dict:
    return json.loads((_DATA_DIR / "text_rules.json").read_text())


@lru_cache(maxsize=1)
def _lexicon() -> dict:
    return json.loads((_DATA_DIR / "sentiment_lexicon.json").read_text())


@lru_cache(maxsize=1)
def _abbreviations() -> frozenset[str]:
    return frozenset(_text_rules()["abbreviations"])


# ---------------------------------------------------------------------------
# one pass over the chunks of a text
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16384)
def count_syllables(word: str) -> int:
    """Syllables by vowel-group counting with silent-e handling.

    Rules (shipped in data/text_rules.json): count maximal runs of aeiouy in
    the lowercased letters; subtract one for a trailing silent 'e' unless the
    word ends in consonant+'le'; exception table wins; minimum one syllable.
    Tokens without letters count as one. Counts are memoised per word:
    summaries reuse a small vocabulary.
    """
    rules = _text_rules()
    letters = _NON_LETTER_RE.sub("", word.lower())
    if not letters:
        return 1
    exceptions = rules["exceptions"]
    if letters in exceptions:
        return exceptions[letters]
    vowels = set(rules["vowels"])
    count = 0
    in_group = False
    for ch in letters:
        if ch in vowels:
            if not in_group:
                count += 1
            in_group = True
        else:
            in_group = False
    if (rules["subtract_silent_e"] and count > 1 and letters.endswith("e")
            and not (rules["keep_consonant_le"] and len(letters) >= 3
                     and letters.endswith("le") and letters[-3] not in vowels)):
        count -= 1
    return max(1, count)


@lru_cache(maxsize=16384)
def _token_fact(token: str) -> tuple[tuple[float, float] | None, float | None, bool]:
    """Lexicon facts of one token, resolved once per distinct token:
    ((polarity, subjectivity) of a scored word or None, modifier intensity or
    None, whether it negates)."""
    lex = _lexicon()
    negates = token in lex["negations"] or token.endswith("n't")
    entry = lex["entries"].get(token)
    if entry is None:
        return None, None, negates
    if entry.get("modifier"):
        return None, float(entry["intensity"]), negates
    return (float(entry.get("polarity", 0.0)), float(entry.get("subjectivity", 0.0))), None, negates


def _chunk_facts(chunk: str) -> tuple[int, int, tuple, bool]:
    """Facts of one chunk, resolved once per distinct chunk: (its words, their
    syllables, the _token_fact of each sentiment token in order, whether it
    ends a sentence). The chunk holds a word when it has a nonzero word count.

    Sentiment tokens are read after lowercasing, with a curly apostrophe as a
    straight one, so "don’t" negates like "don't". A chunk ends a sentence
    when it ends in terminal punctuation (. ! ?) that does not follow a known
    abbreviation: the run of letters and dots before it, lowercased.
    """
    words = _WORD_RE.findall(chunk)
    tokens = _TOKEN_RE.findall(chunk.lower().replace("’", "'"))
    body = chunk.rstrip(".!?")
    ends = len(body) < len(chunk)
    if ends:
        # The run that ends the body is the run that starts its reverse.
        run = _WORD_CHARS_RE.match(body[::-1])
        ends = run is None or run.group()[::-1].lower() not in _abbreviations()
    return (len(words), sum(map(count_syllables, words)),
            tuple(map(_token_fact, tokens)), ends)


#: Chunks whose facts the memo keeps at most.
CHUNK_MEMO = 16384


class _ChunkMemo(dict):
    """_chunk_facts of each chunk looked up, memoised: a hit is one dict
    lookup, with none of lru_cache's bookkeeping. Emptied when it holds
    CHUNK_MEMO chunks, so it stays bounded however many distinct chunks
    the texts hold."""

    def __missing__(self, chunk: str) -> tuple[int, int, tuple, bool]:
        facts = _chunk_facts(chunk)
        if len(self) >= CHUNK_MEMO:
            self.clear()
        self[chunk] = facts
        return facts


_chunks = _ChunkMemo()


def _scan(text: str) -> tuple[float | None, float, float]:
    """(reading ease, polarity, subjectivity) from one pass over the chunks
    of a text; reading ease is None for a text without a word.

    A sentence is the run of chunks up to one that ends a sentence, or the
    unterminated tail; it counts when it holds a word, and a text with a word
    has at least one. Polarity and subjectivity are the clamped means of the
    scores of the scored tokens, summed in text order; (0, 0) with none. A
    modifier right before a scored token scales both of its scores; a
    negation among the two tokens before it scales its polarity.
    """
    neg_mult = _lexicon()["negation_multiplier"]
    n_words = n_syllables = n_sentences = 0
    has_word = False                 # whether the open sentence holds a word
    pols: list[float] = []
    subjs: list[float] = []
    intensity = None                 # modifier intensity of the previous token
    negated_1 = negated_2 = False    # whether the previous / the one before negates
    for words, syllables, facts, ends in map(_chunks.__getitem__, text.split()):
        if words:
            n_words += words
            n_syllables += syllables
            has_word = True
        if ends:
            n_sentences += has_word
            has_word = False
        for scores, own_intensity, negates in facts:
            if scores is not None:
                pol, subj = scores
                if intensity is not None:
                    pol *= intensity
                    subj *= intensity
                if negated_1 or negated_2:
                    pol *= neg_mult
                pols.append(pol)
                subjs.append(subj)
            intensity, negated_1, negated_2 = own_intensity, negates, negated_1
    ease = None
    if n_words:
        n_sentences = max(1, n_sentences + has_word)
        ease = 206.835 - 1.015 * (n_words / n_sentences) - 84.6 * (n_syllables / n_words)
    if not pols:
        return ease, 0.0, 0.0
    return (ease, _clamp(sum(pols) / len(pols), -1.0, 1.0),
            _clamp(sum(subjs) / len(subjs), 0.0, 1.0))


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, value))


# ---------------------------------------------------------------------------
# measures of one text
# ---------------------------------------------------------------------------

def split_sentences(text: str) -> list[str]:
    """The sentences of a text, cut after each chunk that ends one (see
    _chunk_facts) and the whitespace that follows it. Segments without a word
    don't count."""
    parts: list[str] = []
    start = 0
    cut = False
    for chunk in _CHUNK_RE.finditer(text):
        if cut:
            parts.append(text[start:chunk.start()])
            start = chunk.start()
        cut = _chunks[chunk.group()][3]
    parts.append(text[start:])
    return [p for p in parts if _WORD_RE.search(p)]


def flesch_reading_ease(text: str) -> float:
    """206.835 - 1.015 * (words/sentences) - 84.6 * (syllables/words)."""
    ease = _scan(text)[0]
    if ease is None:
        raise NoWordError()
    return ease


def reading_time(text: str, ms_per_char: float = READING_MS_PER_CHAR) -> float:
    """Seconds to read: character count times a constant per-character cost.

    The per-character cost is snapped to the nearest multiple of 2**-31
    seconds so every product is exactly representable; reading times then
    add exactly under concatenation (time(a+b) == time(a)+time(b) bitwise).
    """
    if ms_per_char <= 0:
        raise TextMetricsError("ms_per_char must be positive")
    per_char = round(ms_per_char / 1000.0 * 2**31) / 2**31
    return len(text) * per_char


def polarity(text: str) -> float:
    """Mean lexicon polarity of matched words in [-1, 1]; 0 with no matches."""
    return _scan(text)[1]


def subjectivity(text: str) -> float:
    """Mean lexicon subjectivity of matched words in [0, 1]; 0 with no matches."""
    return _scan(text)[2]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryRecord:
    """One generated summary within the experimental grid."""

    resume_id: str
    variant_id: str
    model_name: str
    length: int           # 100 | 200
    pov: str              # "first" | "third"
    temperature: float    # 0.0 | 0.3
    run_index: int        # 1..5
    text: str

    def __post_init__(self):
        if self.length not in (100, 200):
            raise TextMetricsError(f"length must be 100 or 200, got {self.length}")
        if self.pov not in ("first", "third"):
            raise TextMetricsError(f"pov must be first or third, got {self.pov!r}")
        if self.temperature not in (0.0, 0.3):
            raise TextMetricsError(f"temperature must be 0.0 or 0.3, got {self.temperature}")
        if not 1 <= self.run_index <= 5:
            raise TextMetricsError(f"run_index must be in [1, 5], got {self.run_index}")

    def __str__(self) -> str:
        """The summary's name in error messages."""
        return (f"summary by {self.model_name} of resume {self.resume_id}, variant "
                f"{self.variant_id}, temperature {self.temperature}, length {self.length}, "
                f"pov {self.pov}, run {self.run_index}")


@dataclass(frozen=True)
class MeasureVector:
    reading_ease: float
    reading_time: float
    polarity: float
    subjectivity: float
    regard: dict[str, float] | None = None

    def scalar(self, measure: str, regard_category: str = "positive") -> float | None:
        """Scalar value of a measure; regard collapses to one category's score."""
        if measure == "regard":
            return None if self.regard is None else self.regard[regard_category]
        return getattr(self, measure)


#: Measure names in ledger order; regard is optional.
MeasureVector.NAMES = tuple(f.name for f in fields(MeasureVector))


def no_word(record: SummaryRecord) -> TextMetricsError:
    """The error for a summary without a word, which names the summary."""
    return TextMetricsError(f"{record} has no word: {NoWordError()}")


def summary_lines(with_measures: bool, record: SummaryRecord, text: str,
                  ) -> tuple[str, tuple[float, float, float, float], str | None, str | None]:
    """What a command keeps of one summary, `text`, of `record` (whose own
    text may be left empty), made where the text is: its summaries line; its
    measures but regard (one scan, and the reading time); and its measures
    line when `with_measures`, else the text, for regard to score. Each line
    is encode_line's, as write_measures writes one; `run`, `summarize` and
    `measure` make them all with it. A text without a word is no_word(record)."""
    ease, pol, subj = _scan(text)
    if ease is None:
        raise no_word(record)
    measures = (ease, reading_time(text), pol, subj)
    row = to_row(record, text=text)
    line = encode_line(row)
    if not with_measures:
        return line, measures, None, text
    return line, measures, encode_line(_measured_row(row, measures)), None


def read_summaries(path) -> list[SummaryRecord]:
    """Summary records from a JSONL file of their rows; a row that is not a
    summary is a TextMetricsError."""
    return [from_row(SummaryRecord, row, TextMetricsError, f"{path} line {lineno}")
            for lineno, row in read_jsonl(path, TextMetricsError)]


def measures_row(record: SummaryRecord, mv: MeasureVector) -> dict:
    """A summary's row of a measures file: its record's fields but the text,
    and its measures (regard only when scored); schema versioned."""
    measures = [getattr(mv, name) for name in MeasureVector.NAMES]
    return _measured_row(to_row(record), measures if mv.regard is not None else measures[:-1])


def _measured_row(row: dict, measures) -> dict:
    """`row`, a summary record's row, made its row of a measures file (see
    measures_row): the text goes, and `measures`, in MeasureVector.NAMES
    order and without regard when they stop before it, and the schema
    version join."""
    del row["text"]
    row.update(zip(MeasureVector.NAMES, measures), schema_version=MEASURES_SCHEMA_VERSION)
    return row


def write_measures(rows: Iterable[tuple[SummaryRecord, MeasureVector]], path) -> None:
    """One measures_row line per summary."""
    write_jsonl((encode_line(measures_row(record, mv)) for record, mv in rows), path)


def read_measures(path) -> list[tuple[SummaryRecord, MeasureVector]]:
    """(record, measures) of each row of a measures file; the record's text
    is empty. A row of another schema or of other keys is a TextMetricsError."""
    rows = []
    for lineno, row in read_jsonl(path, TextMetricsError):
        where = f"{path} line {lineno}"
        if row.get("schema_version") != MEASURES_SCHEMA_VERSION:
            raise TextMetricsError(f"{where}: unsupported measures schema")
        measures = {name: row.pop(name) for name in MeasureVector.NAMES if name in row}
        rows.append((from_row(SummaryRecord, row, TextMetricsError, where,
                              extra=("schema_version",), text=""),
                     from_row(MeasureVector, measures, TextMetricsError, where)))
    return rows
