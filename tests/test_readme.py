"""The README's library example runs as printed, and its API list is the package's."""

import re
from pathlib import Path

import pytest

import miso_outage

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def test_library_use_block_gives_its_commented_results():
    """member(1.6, 1.4) is True; the bias interval's lower end, 0.2582...,
    prints as the 0.26 of the comment."""
    block = re.search(r"```python\n(.*?)```", section("Library use"), re.S).group(1)
    names = {}
    exec(block, names)
    comments = dict(re.findall(r"^(\w+) = .*#\s*(.*)$", block, re.M))
    assert names["inside"] is True
    assert comments["inside"] == "True"
    interval = names["interval"]
    assert interval.lo == pytest.approx(0.2582, abs=1e-4)
    assert comments["interval"].endswith(f"[{interval.lo:.2f}, {interval.hi:.1f}]")


def test_all_is_the_readme_api_list():
    lines = section("API").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("* **"))
    end = next(i for i in range(start, len(lines)) if not lines[i].strip())
    listed = re.findall(r"`([^`]+)`", "\n".join(lines[start:end]))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(miso_outage.__all__)
