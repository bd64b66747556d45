"""Pipeline configuration: one flat key = value file, overridable by CLI flags.

Relative paths in a config file resolve against the config file's directory,
so a config checked in next to its corpus keeps working from any cwd.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus_ingest import CORPUS_FORMATS, CleaningRules, load_stopwords
from .cp_als import AlsOptions
from .ensemble import SelectionConfig
from .report import DEFAULT_KEYWORD_COUNT, DEFAULT_TOP_N


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
    if not ranks:
        raise ValueError(f"ranks must be non-empty, got {text!r}")
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
