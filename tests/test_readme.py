"""README's "Library use" block runs as written, on the toy tensor."""

import re
from pathlib import Path

from tensortopics import (
    CleaningRules, build_counts, clean_and_filter, counts_to_tensor, dedup, load_corpus,
)

from conftest import DATA_DIR

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.DOTALL)
    assert block, "README has no python block under '## Library use'"
    rules = CleaningRules()
    records = dedup(clean_and_filter(load_corpus(DATA_DIR / "toy_corpus.csv", "csv"), rules))
    scope = {"tensor": counts_to_tensor(build_counts(records, rules))}
    exec(compile(block.group(1), f"{README}:Library use", "exec"), scope)
    assert scope["kept"]
