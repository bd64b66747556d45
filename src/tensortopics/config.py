"""Pipeline configuration: one flat key = value file, overridable by CLI flags.

Relative paths in a config file resolve against the config file's directory,
so a config checked in next to its corpus keeps working from any cwd.

The settings types of the stages live here too, so a stage process loads
only the modules its own stage runs: corpus_ingest and ensemble import them
from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cp_als import AlsOptions
from .report import DEFAULT_KEYWORD_COUNT, DEFAULT_TOP_N

CORPUS_FORMATS = ("csv", "tsv", "jsonl")
STRATEGIES = ("stable-then-dedup", "greedy-dedup")
DEFAULT_RANKS = (20, 40, 60, 80, 100, 120, 200)

# Classic English function-word list. Kept deliberately generic; domain
# stopwords belong in a caller-supplied file.
DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all also am an and any are as at be
    because been before being below between both but by can could did do does
    doing down during each few for from further had has have having he her
    here hers herself him himself his how i if in into is it its itself just
    me more most my myself no nor not now of off on once only or other our
    ours ourselves out over own same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with would you your yours yourself yourselves
    """.split()
)


@dataclass(frozen=True)
class CleaningRules:
    """Knobs for record filtering and tokenization.

    name_df_floor drives a heuristic pass that drops tokens appearing only
    capitalized in the corpus with document frequency below the floor; these
    are overwhelmingly person and place names. 0 disables the pass.
    """

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    min_token_length: int = 3
    dna_min_run: int = 8
    max_char_repeat: int = 3
    max_consonant_run: int = 5
    max_nonascii_fraction: float = 0.5
    name_df_floor: int = 2

    def __post_init__(self):
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        if any(w != w.lower() for w in self.stopwords):
            raise ValueError("stopwords must be lowercase")
        if self.min_token_length < 1:
            raise ValueError(f"min_token_length must be >= 1, got {self.min_token_length}")
        # Each is a repeat count in corpus_ingest._token_filter's patterns
        # (max_consonant_run plus one), and re rejects counts from its
        # MAXREPEAT, 4294967295, up.
        for name, low, high in (
            ("dna_min_run", 2, 4294967294),
            ("max_char_repeat", 1, 4294967294),
            ("max_consonant_run", 1, 4294967293),
        ):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            if value > high:
                raise ValueError(f"{name} must be <= {high}, got {value}")
        if not 0.0 <= self.max_nonascii_fraction <= 1.0:
            raise ValueError(
                f"max_nonascii_fraction must be in [0, 1], got {self.max_nonascii_fraction}"
            )
        if self.name_df_floor < 0:
            raise ValueError(f"name_df_floor must be >= 0, got {self.name_df_floor}")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one word per line, '#' comments, blanks ignored.
    A UTF-8 byte-order mark is skipped."""
    words = []
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line.lower())
    return frozenset(words)


@dataclass(frozen=True)
class SelectionConfig:
    """Rank set plus the cosine threshold and strategy used for selection.

    threshold is meaningful on [0, 1]; values above 1 make every pair
    dissimilar, which disables deduplication (occasionally useful for
    diagnostics under greedy-dedup).
    """

    ranks: tuple[int, ...] = DEFAULT_RANKS
    threshold: float = 0.35
    strategy: str = "stable-then-dedup"

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if len(self.ranks) == 0:
            raise ValueError("ranks must be non-empty")
        if any(r < 1 for r in self.ranks):
            raise ValueError(f"ranks must be positive, got {self.ranks}")
        if any(r > np.iinfo(np.intp).max for r in self.ranks):
            raise ValueError(f"ranks must be at most {np.iinfo(np.intp).max}, got {self.ranks}")
        if any(b <= a for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError(f"ranks must be strictly ascending, got {self.ranks}")
        if not math.isfinite(self.threshold) or self.threshold < 0.0:
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run needs."""

    corpus: Path | None = None
    corpus_format: str = "csv"
    workdir: Path | None = None
    output: Path | None = None
    rules: CleaningRules = field(default_factory=CleaningRules)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    als: AlsOptions = field(default_factory=AlsOptions)
    top_n: int = DEFAULT_TOP_N
    keyword_count: int = DEFAULT_KEYWORD_COUNT
    threads: int = 1
    similarity_matrix: bool = False

    def __post_init__(self):
        if self.corpus_format not in CORPUS_FORMATS:
            raise ValueError(f"unknown corpus format {self.corpus_format!r}, expected one of {CORPUS_FORMATS}")
        if self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if self.keyword_count < 1:
            raise ValueError(f"keyword_count must be >= 1, got {self.keyword_count}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


def parse_ranks(text: str) -> tuple[int, ...]:
    """Parse a comma-separated rank list like '20,40,60'."""
    try:
        ranks = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"ranks must be comma-separated integers, got {text!r}")
    return ranks


def _parse_bool(text: str) -> bool:
    """1/true/yes or 0/false/no, in any case; anything else is an error."""
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


# config key -> (the settings object holding the value, None for
# PipelineConfig itself; its field; the reader of the file's text). The
# values of Path and load_stopwords keys resolve against the file's directory.
SETTINGS = {
    "corpus": (None, "corpus", Path),
    "format": (None, "corpus_format", str),
    "workdir": (None, "workdir", Path),
    "output": (None, "output", Path),
    "ranks": ("selection", "ranks", parse_ranks),
    "threshold": ("selection", "threshold", float),
    "strategy": ("selection", "strategy", str),
    "seed": ("als", "seed", int),
    "max_iters": ("als", "max_iters", int),
    "fit_tolerance": ("als", "fit_tolerance", float),
    "threads": (None, "threads", int),
    "top_n": (None, "top_n", int),
    "keywords": (None, "keyword_count", int),
    "stopwords": ("rules", "stopwords", load_stopwords),
    "min_token_length": ("rules", "min_token_length", int),
    "dna_min_run": ("rules", "dna_min_run", int),
    "max_char_repeat": ("rules", "max_char_repeat", int),
    "max_consonant_run": ("rules", "max_consonant_run", int),
    "max_nonascii_fraction": ("rules", "max_nonascii_fraction", float),
    "name_df_floor": ("rules", "name_df_floor", int),
    "similarity_matrix": (None, "similarity_matrix", _parse_bool),
}
_BY_FIELD = {name: (obj, reader) for obj, name, reader in SETTINGS.values()}


def _set(cfg: PipelineConfig, obj: str | None, name: str, value) -> PipelineConfig:
    """cfg with field `name` of settings object `obj` (None: cfg itself) set."""
    if obj is None:
        return replace(cfg, **{name: value})
    return replace(cfg, **{obj: replace(getattr(cfg, obj), **{name: value})})


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key = value config file.

    The file is UTF-8; a leading byte-order mark is skipped. A byte that is
    not UTF-8, a line without '=', an unknown or duplicate key, and a value
    that its reader or its settings object rejects (an unreadable stopword
    file too) each raise a ValueError naming the file and the line.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the input after any byte-order mark; number the bad
        # byte's line the way splitlines() numbers the decoded text's.
        line_no = len((exc.object[: exc.start] + b"x").decode("utf-8").splitlines())
        raise ValueError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    cfg = PipelineConfig()
    seen = set()
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in SETTINGS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{line_no}: duplicate config key {key!r}")
        seen.add(key)
        obj, name, reader = SETTINGS[key]
        try:
            value = reader(path.parent / text if reader in (Path, load_stopwords) else text)
            cfg = _set(cfg, obj, name, value)
        except (ValueError, OSError) as exc:
            raise ValueError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from None
    return cfg


def apply_overrides(cfg: PipelineConfig, **overrides) -> PipelineConfig:
    """Return cfg with non-None override values applied.

    Overrides are named by field (seed, ranks, corpus_format, top_n, ...),
    and a path field also takes a string. An unknown name is a TypeError.
    """
    unknown = sorted(set(overrides) - set(_BY_FIELD))
    if unknown:
        raise TypeError(f"unknown overrides: {unknown}")
    for name, value in overrides.items():
        if value is not None:
            obj, reader = _BY_FIELD[name]
            cfg = _set(cfg, obj, name, Path(value) if reader is Path else value)
    return cfg
