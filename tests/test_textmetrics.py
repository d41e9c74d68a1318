import json
import math
import os
import random
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hirefair
from hirefair import textmetrics
from hirefair.backends import (
    BackendConfig,
    BackendError,
    RegardClient,
    ResponseCache,
    cpu_map,
    thread_map,
    validate_regard,
)
from hirefair.pipeline import measure_summaries
from hirefair.records import encode_line, to_row
from hirefair.textmetrics import (
    MeasureVector,
    SummaryRecord,
    TextMetricsError,
    count_syllables,
    flesch_reading_ease,
    measures_row,
    polarity,
    read_measures,
    reading_time,
    subjectivity,
    summary_lines,
    write_measures,
)


def flesch_formula(words: int, sentences: int, syllables: int) -> float:
    return 206.835 - 1.015 * (words / sentences) - 84.6 * (syllables / words)


# Hand-counted fixtures: (text, words, sentences, syllables per the shipped
# rule table: vowel runs of aeiouy, silent trailing e, consonant+le kept).
FLESCH_FIXTURES = [
    ("The cat sat.", 3, 1, 3),
    ("He made a cake.", 4, 1, 4),
    ("Dogs run fast and play hard.", 6, 1, 6),
    ("Little turtles swim.", 3, 1, 5),
    ("A simple example.", 3, 1, 6),
    ("Banana bread is delicious and amazing.", 6, 1, 12),
    ("I see. You go.", 4, 2, 4),
    ("Programming requires patience.", 3, 1, 8),
    ("She works at a bakery near the lake.", 8, 1, 10),
    ("Why try to fly higher?", 5, 1, 6),
]


@pytest.mark.parametrize("text,words,sentences,syllables", FLESCH_FIXTURES)
def test_flesch_hand_computed(text, words, sentences, syllables):
    expected = flesch_formula(words, sentences, syllables)
    assert flesch_reading_ease(text) == pytest.approx(expected, abs=1e-9)


def test_flesch_spec_value():
    assert flesch_reading_ease("The cat sat.") == pytest.approx(119.19, abs=1e-9)


def test_flesch_invariant_under_sentence_duplication():
    single = flesch_reading_ease("The cat sat.")
    doubled = flesch_reading_ease("The cat sat. The cat sat.")
    assert doubled == single


def test_flesch_monotone_in_syllable_density():
    # same word and sentence counts, more syllables
    assert flesch_reading_ease("The kitten sat.") < flesch_reading_ease("The cat sat.")


def test_flesch_needs_a_word():
    with pytest.raises(TextMetricsError):
        flesch_reading_ease("")
    with pytest.raises(TextMetricsError):
        flesch_reading_ease("?!.")


def test_unterminated_text_counts_one_sentence():
    assert flesch_reading_ease("the cat sat") == pytest.approx(
        flesch_formula(3, 1, 3), abs=1e-9)


@pytest.mark.parametrize("word,expected", [
    ("the", 1), ("cat", 1), ("made", 1), ("cake", 1), ("play", 1),
    ("little", 2), ("turtles", 2), ("simple", 2), ("example", 3),
    ("banana", 3), ("delicious", 3), ("amazing", 3), ("you", 1),
    ("see", 1), ("requires", 3), ("patience", 2), ("bakery", 3),
    ("higher", 2), ("why", 1), ("people", 2), ("strength", 1),
])
def test_syllable_rules(word, expected):
    assert count_syllables(word) == expected


@pytest.mark.parametrize("word,expected", [
    ("business", 2), ("science", 2), ("area", 3), ("idea", 3),
])
def test_syllable_exception_table(word, expected):
    assert count_syllables(word) == expected


def test_syllable_floor_is_one():
    assert count_syllables("rhythm") >= 1
    assert count_syllables("tsk") == 1
    assert count_syllables("42") == 1  # no letters


#: Texts and their hand-counted sentences; each is also an example of
#: test_measures_agree_with_oracle.
SENTENCE_COUNTS = [
    ("I see. You go.", 2),
    ("One! Two? Three.", 3),
    ("No terminal punctuation here", 1),
    ("Dr. Smith writes docs.", 1),
    ("Works at Corp. Ships docs.", 1),  # corp is an abbreviation
    # only a word that ends at the boundary can be an abbreviation
    ("Joined Acme Co 2019. Led sales.", 2),
    ("Call Dr 42. Next one.", 2),
    ("", 0),
]


def test_sentence_splitting():
    """Each text's sentences, as the oracle counts them and as reading ease
    reads them; a text without a word has no reading ease."""
    for text, sentences in SENTENCE_COUNTS:
        assert oracle_sentence_count(text) == sentences
        words = re.findall(r"[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*", text)
        if not words:
            with pytest.raises(TextMetricsError, match="at least one word"):
                flesch_reading_ease(text)
            continue
        assert flesch_reading_ease(text) == flesch_formula(
            len(words), sentences, sum(oracle_syllables(w) for w in words))


# ---------------------------------------------------------------------------
# reading time
# ---------------------------------------------------------------------------

def test_reading_time_empty():
    assert reading_time("") == 0.0


def test_reading_time_hundred_chars():
    assert reading_time("x" * 100) == pytest.approx(1.469, abs=1e-6)


@given(st.text(max_size=400), st.text(max_size=400))
@settings(max_examples=150, deadline=None)
def test_reading_time_additivity_exact(a, b):
    assert reading_time(a + b) == reading_time(a) + reading_time(b)


def test_reading_time_custom_constant():
    assert reading_time("x" * 1000, ms_per_char=20.0) == pytest.approx(20.0, abs=1e-6)
    with pytest.raises(TextMetricsError):
        reading_time("x", ms_per_char=0.0)


# ---------------------------------------------------------------------------
# sentiment
# ---------------------------------------------------------------------------

def test_empty_text_scores_zero():
    assert polarity("") == 0.0
    assert subjectivity("") == 0.0


def test_unmatched_text_scores_zero():
    assert polarity("quarterly revenue spreadsheet") == 0.0
    assert subjectivity("quarterly revenue spreadsheet") == 0.0


def test_single_lexicon_word():
    assert polarity("great") == pytest.approx(0.8)
    assert subjectivity("great") == pytest.approx(0.75)


def test_negation_spec_example():
    assert polarity("not great") == pytest.approx(-0.4)


def test_negation_contraction():
    assert polarity("isn't great") == pytest.approx(-0.4)


def test_negation_window_two_tokens():
    assert polarity("not very great") == pytest.approx(0.8 * 1.3 * -0.5)
    assert polarity("not at all great") == pytest.approx(0.8)  # negation out of window


def test_negation_leaves_subjectivity():
    assert subjectivity("not great") == pytest.approx(0.75)


def test_intensifier():
    assert polarity("very good") == pytest.approx(0.7 * 1.3)
    assert subjectivity("very good") == pytest.approx(min(1.0, 0.6 * 1.3))
    assert polarity("slightly good") == pytest.approx(0.7 * 0.7)


def test_modifiers_do_not_score_alone():
    assert polarity("very spreadsheet") == 0.0


def test_averaging_over_matches():
    assert polarity("good bad") == pytest.approx((0.7 - 0.7) / 2)
    assert polarity("excellent terrible good") == pytest.approx((1.0 - 1.0 + 0.7) / 3)


def test_curly_apostrophe_negates():
    assert polarity("don’t good") == polarity("don't good") == pytest.approx(-0.35)
    # one token, so the two-token window still reaches past "very"
    assert polarity("don’t very good") == polarity("don't very good") == pytest.approx(
        0.7 * 1.3 * -0.5)
    assert subjectivity("isn’t great") == subjectivity("isn't great")


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_sentiment_bounds(text):
    assert -1.0 <= polarity(text) <= 1.0
    assert 0.0 <= subjectivity(text) <= 1.0


def test_sentiment_deterministic():
    text = "a very good and extremely reliable candidate, not sloppy at all"
    assert polarity(text) == polarity(text)
    assert subjectivity(text) == subjectivity(text)


# ---------------------------------------------------------------------------
# regard
# ---------------------------------------------------------------------------

FIXED_SCORES = {"positive": 0.6, "negative": 0.1, "neutral": 0.25, "other": 0.05}


def test_validate_regard_accepts_unit_sum():
    assert validate_regard(FIXED_SCORES) == FIXED_SCORES


def test_validate_regard_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        validate_regard({"positive": 0.9, "negative": 0.2, "neutral": 0.0, "other": 0.0})
    with pytest.raises(ValueError, match="missing"):
        validate_regard({"positive": 1.0})


@pytest.mark.parametrize("scores", [
    (math.nan, 0.5, 0.25, 0.25),
    (math.inf, 0.5, 0.25, 0.25),
    (1.5, -0.5, 0.0, 0.0),
])
def test_validate_regard_rejects_scores_outside_the_unit_interval(scores):
    """NaN passes the sum check (abs(nan - 1) > 1e-6 is False), and
    (1.5, -0.5, 0, 0) sums to 1; each is refused."""
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        validate_regard(dict(zip(("positive", "negative", "neutral", "other"), scores)))


REGARD_URL = "https://example.invalid/regard"


def regard_client(monkeypatch, answer=None, cache=None, **config):
    """A regard client whose endpoint answers `answer(payload)`, read as the
    regard protocol reads an answer; the payloads it posts are recorded in
    its `posted`."""
    client = RegardClient(BackendConfig(id="regard", kind="regard", protocol="http",
                                        model_name=REGARD_URL, endpoint=REGARD_URL,
                                        **config), cache)
    client.posted = []

    def post(payload, read):
        client.posted.append(payload)
        return read(answer(payload))

    monkeypatch.setattr(client.http, "post", post)
    return client


def test_regard_client_passthrough(monkeypatch):
    client = regard_client(monkeypatch, lambda payload: dict(FIXED_SCORES))
    assert client.score("any text") == FIXED_SCORES
    assert client.posted == [{"text": "any text"}]


def test_regard_client_failure_degrades_to_none(monkeypatch):
    def broken(payload):
        raise BackendError("endpoint down")

    client = regard_client(monkeypatch, broken)
    assert client.score("text") is None
    record = make_record(text="A good summary.")
    [(_, mv)] = measure_summaries([record], client, [measures_of(record.text)])
    assert mv.regard is None
    assert mv.polarity == pytest.approx(0.7)


def test_regard_client_rejects_invalid_distribution(monkeypatch):
    client = regard_client(monkeypatch, lambda payload: {
        "positive": 2.0, "negative": 0.0, "neutral": 0.0, "other": 0.0})
    assert client.score("text") is None


def test_regard_client_caches(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path)
    client = regard_client(monkeypatch, lambda payload: dict(FIXED_SCORES), cache)
    assert client.score("same text") == FIXED_SCORES
    assert client.score("same text") == FIXED_SCORES
    assert client.posted == [{"text": "same text"}]


def test_regard_client_fails_fast_on_missing_credential(monkeypatch):
    monkeypatch.delenv("NOPE_REGARD_KEY", raising=False)
    with pytest.raises(BackendError, match="NOPE_REGARD_KEY"):
        regard_client(monkeypatch, credential_env="NOPE_REGARD_KEY")


# ---------------------------------------------------------------------------
# records and measures files
# ---------------------------------------------------------------------------

def make_record(**overrides):
    base = dict(resume_id="r1", variant_id="name:FW", model_name="mock",
                length=100, pov="third", temperature=0.0,
                run_index=1, text="A good summary. It reads well.")
    base.update(overrides)
    return SummaryRecord(**base)


def measures_of(text: str) -> tuple[float, float, float, float]:
    """The measures but regard of a text, from the public measure functions."""
    return flesch_reading_ease(text), reading_time(text), polarity(text), subjectivity(text)


def test_summary_record_factor_validation():
    make_record()
    with pytest.raises(TextMetricsError):
        make_record(length=150)
    with pytest.raises(TextMetricsError):
        make_record(pov="second")
    with pytest.raises(TextMetricsError):
        make_record(temperature=0.7)
    with pytest.raises(TextMetricsError):
        make_record(run_index=6)


def test_measure_text_fields():
    """A summary's step gives its summaries line, its measures but regard,
    and its measures line, or in its place the text that regard scores."""
    text = "A good summary. Clear and very reliable."
    record = make_record(text="")
    line, measures, measures_line, kept = summary_lines(True, record, text)
    mv = MeasureVector(*measures)
    assert measures == measures_of(text)
    assert mv.reading_time > 0
    assert mv.polarity > 0
    assert 0 <= mv.subjectivity <= 1
    assert mv.scalar("polarity") == mv.polarity
    assert mv.scalar("regard") is None
    assert line == encode_line(to_row(make_record(text=text)))
    assert measures_line == encode_line(measures_row(record, mv))
    assert "regard" not in json.loads(measures_line) and kept is None
    assert summary_lines(False, record, text) == (line, measures, None, text)


def test_measure_vector_regard_scalar():
    mv = MeasureVector(reading_ease=50.0, reading_time=1.0, polarity=0.0,
                       subjectivity=0.0, regard=dict(FIXED_SCORES))
    assert mv.scalar("regard") == 0.6
    assert mv.scalar("regard", regard_category="neutral") == 0.25


def test_measures_file_round_trip(tmp_path):
    rows = [
        (make_record(), MeasureVector(*measures_of("A good summary."))),
        (make_record(resume_id="r2", run_index=2, temperature=0.3),
         MeasureVector(*measures_of("A terrible and sloppy draft."))),
    ]
    path = tmp_path / "measures.jsonl"
    write_measures(rows, path)
    loaded = read_measures(path)
    assert len(loaded) == 2
    for (orig_rec, orig_mv), (rec, mv) in zip(rows, loaded):
        assert rec.resume_id == orig_rec.resume_id
        assert rec.run_index == orig_rec.run_index
        assert mv.reading_ease == orig_mv.reading_ease
        assert mv.polarity == orig_mv.polarity
    doc = json.loads(path.read_text().splitlines()[0])
    assert doc["schema_version"] == 2


def test_measures_file_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema_version": 99}\n')
    with pytest.raises(TextMetricsError):
        read_measures(path)


# ---------------------------------------------------------------------------
# independent oracle for the deterministic measures
# ---------------------------------------------------------------------------

_DATA = Path(hirefair.__file__).parent / "data"
RULES = json.loads((_DATA / "text_rules.json").read_text())
LEXICON = json.loads((_DATA / "sentiment_lexicon.json").read_text())


def oracle_syllables(word: str) -> int:
    letters = "".join(ch for ch in word.lower() if "a" <= ch <= "z")
    if not letters:
        return 1
    if letters in RULES["exceptions"]:
        return RULES["exceptions"][letters]
    count = len(re.findall(r"[aeiouy]+", letters))
    consonant_le = re.search(r"[^aeiouy]le\Z", letters) is not None
    if count > 1 and letters.endswith("e") and not consonant_le:
        count -= 1
    return max(1, count)


def oracle_sentence_count(text: str) -> int:
    """Sentences of a text. Each search is anchored at \\Z, the end of the
    string: `$` also matches before a final newline, which would read the
    word before a gap of "\\n" as touching the sentence end after it."""
    count, start = 0, 0
    for end in re.finditer(r"[.!?]+(?:\s+|\Z)", text):
        run = re.search(r"[A-Za-z.]+\Z", text[start:end.start()])
        if run and run.group().rstrip(".").lower() in RULES["abbreviations"]:
            continue
        count += bool(re.search(r"[A-Za-z0-9]", text[start:end.end()]))
        start = end.end()
    return count + bool(re.search(r"[A-Za-z0-9]", text[start:]))


def oracle_reading_ease(text: str) -> float:
    words = re.findall(r"[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*", text)
    return flesch_formula(len(words), max(1, oracle_sentence_count(text)),
                          sum(oracle_syllables(w) for w in words))


def oracle_sentiment(text: str) -> tuple[float, float]:
    """Mean over matched tokens; a modifier right before a token multiplies
    by its intensity; a negation or n't token among the two before it
    multiplies polarity by the negation multiplier."""
    entries = LEXICON["entries"]
    tokens = re.findall(r"[a-z0-9']+", text.lower().replace("’", "'"))
    pols, subjs = [], []
    for i, token in enumerate(tokens):
        entry = entries.get(token)
        if entry is None or entry.get("modifier"):
            continue
        pol, subj = entry["polarity"], entry["subjectivity"]
        before = entries.get(tokens[i - 1], {}) if i > 0 else {}
        if before.get("modifier"):
            pol, subj = pol * before["intensity"], subj * before["intensity"]
        if any(t in LEXICON["negations"] or t.endswith("n't") for t in tokens[max(0, i - 2):i]):
            pol *= LEXICON["negation_multiplier"]
        pols.append(pol)
        subjs.append(subj)
    if not pols:
        return 0.0, 0.0
    return (max(-1.0, min(1.0, sum(pols) / len(pols))),
            max(0.0, min(1.0, sum(subjs) / len(subjs))))


ORACLE_WORDS = sorted(LEXICON["entries"]) + LEXICON["negations"] + [
    "don't", "don’t", "isn't", "isn’t", "won’t", "n't", "candidate", "the",
    "people", "little", "business", "area", "rhythm", "42", "well-known",
    "...", "?!",
] + RULES["abbreviations"]

#: Whitespace between words: a word's measures never reach across any of it.
ORACLE_GAPS = [" ", " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\x1c"]


@st.composite
def oracle_texts(draw):
    """Words, punctuation-only chunks and abbreviations, cased, quoted and
    punctuated, between gaps of any whitespace, with or without whitespace
    at either end."""
    pieces = draw(st.lists(st.tuples(
        st.sampled_from(ORACLE_WORDS),
        st.sampled_from(["lower", "title", "upper"]),
        st.sampled_from(["", "", "''", '""', "‘’"]),
        st.sampled_from(["", "", ",", ".", "!", "?", "...", "?!", "'"]),
        st.sampled_from(ORACLE_GAPS),
    ), min_size=1, max_size=40))
    text = draw(st.sampled_from(["", ""] + ORACLE_GAPS)) + "".join(
        quotes[:1] + getattr(word, case)() + quotes[1:] + end + gap
        for word, case, quotes, end, gap in pieces)
    return text if draw(st.booleans()) else text[:-len(pieces[-1][-1])]


@given(oracle_texts())
@example("e.g. this")
@example("I see. You go.")
@example("One! Two? Three.")
@example("No terminal punctuation here")
@example("Dr. Smith writes docs.")
@example("Works at Corp. Ships docs.")
@example("Joined Acme Co 2019. Led sales.")
@example("Call Dr 42. Next one.")
@example("")
@example("  Mr. Smith\tleft?!  ")
@example("don’t great.")
@example("accomplished mr\n... accomplished")
@settings(max_examples=300, deadline=None)
def test_measures_agree_with_oracle(text):
    words = re.findall(r"[A-Za-z0-9]+(?:['’-][A-Za-z0-9]+)*", text)
    assert (polarity(text), subjectivity(text)) == oracle_sentiment(text)
    for word in words:
        assert count_syllables(word) == oracle_syllables(word)
    if not words:
        with pytest.raises(TextMetricsError, match="at least one word"):
            summary_lines(True, make_record(), text)
        return
    measures = summary_lines(True, make_record(), text)[1]
    assert measures == measures_of(text)
    assert measures[0] == oracle_reading_ease(text)


def test_a_small_chunk_memo_measures_as_the_full_one(monkeypatch):
    """With room for 8 chunks, the memo empties again and again over texts of
    hundreds of distinct chunks, never holds more than 8, and gives the
    measures that the full memo and the oracle give."""
    rng = random.Random(29)
    chunks = [word + end for word in ORACLE_WORDS for end in ("", ",", ".", "!", "...")]
    texts = ["Candidate " + " ".join(rng.choices(chunks, k=30)) for _ in range(60)]
    full = [measures_of(text) for text in texts]
    sizes = []

    class Watched(textmetrics._ChunkMemo):
        def __setitem__(self, chunk, facts):
            super().__setitem__(chunk, facts)
            sizes.append(len(self))

    monkeypatch.setattr(textmetrics, "CHUNK_MEMO", 8)
    monkeypatch.setattr(textmetrics, "_chunks", Watched())
    small = [measures_of(text) for text in texts]
    assert small == full
    assert len(sizes) > 2 * len(set(" ".join(texts).split()))  # chunks made again
    assert max(sizes) == 8
    for text, (ease, _, pol, subj) in zip(texts, small):
        assert ease == oracle_reading_ease(text)
        assert (pol, subj) == oracle_sentiment(text)


def text_step(record: SummaryRecord):
    """The per-summary step of a run, for a record that holds its text."""
    return summary_lines(True, record, record.text)


def stepped(records: list) -> list:
    """text_step of each record through thread_map(), or what it raised for
    the record: the map raises at a failing record, and the records after
    it are mapped afresh."""
    values = []
    while len(values) < len(records):
        try:
            for value in thread_map()(text_step, records[len(values):]):
                values.append(value)
        except Exception as exc:
            values.append(exc)
    return values


def test_the_pool_measures_as_the_builtin_map(monkeypatch):
    """The per-summary step mapped on the workers of cpu_map's pool gives,
    item by item, what the builtin map gives on another thread, and a text
    without a word fails at its own item, as the summary it names."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with cpu_map() as pooled, ThreadPoolExecutor(max_workers=1) as other:
        assert thread_map() is pooled is not map

        def outcomes(values) -> list:
            return [repr(v) if isinstance(v, Exception) else v for v in values]

        @given(st.lists(oracle_texts(), min_size=1, max_size=150))
        @example(["Call Dr 42. Next one.", "?! ...", "don’t great."])
        @settings(max_examples=40, deadline=None)
        def check(texts):
            records = [make_record(resume_id=f"r{i}", text=t) for i, t in enumerate(texts)]
            expected = other.submit(stepped, records).result()
            made = stepped(records)
            assert outcomes(made) == outcomes(expected)
            for i, (text, value) in enumerate(zip(texts, made)):
                wordless = not re.search(r"[A-Za-z0-9]", text)
                assert isinstance(value, TextMetricsError) == wordless
                assert not wordless or f"resume r{i}," in str(value)

        check()
