from __future__ import annotations

import re

import pytest
from hypothesis import strategies as st

from fjoin import Graph, generate


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    """Arbitrary simple graph with min_n..max_n vertices."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return Graph.from_edges(n, edges)


def small_numbers(data: str | bytes) -> bool:
    """No run of 4 or more digits or underscores, which int() reads as one number.

    Keeps property tests off headers like "10000000 0": a valid graph whose
    degree vector alone takes 80 MB. Huge headers have their own tests.
    """
    text = data if isinstance(data, str) else data.decode("utf-8", "replace")
    return not re.search(r"[\d_]{4}", text)


@pytest.fixture
def p3() -> Graph:
    return generate("path", 3)


@pytest.fixture
def p4() -> Graph:
    return generate("path", 4)
