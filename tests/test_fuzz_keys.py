"""Mutation fuzzing of the canonical-key reader.

Catalog keys are mutated (a character inserted, deleted or replaced, a
field dropped, repeated or swapped with another) and fed to
``raw_from_key``, the reader behind cache files, assignment tables and
``StableGraph.from_canonical_key``.  Every run must either raise
StructuralError or return a raw whose every position lies in ``range(k)``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from torelli_graphs.enumeration import enumerate_stable_graphs  # noqa: E402
from torelli_graphs.graph_core import StructuralError, raw_from_key  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=400, deadline=None)

SEEDS = sorted(
    k.decode()
    for gn in [(0, 5), (1, 2), (1, 3), (2, 1)]
    for k in enumerate_stable_graphs(*gn).keys
)

# key characters, signs, separators of other formats, a non-ASCII digit
CHARS = list("0123456789:-;=,TG1kglbet+_ ") + ["١", "99999999999"]


@st.composite
def mutated(draw):
    """A catalog key with one to three mutations."""
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "delete", "replace", "field"]))
        at = draw(st.integers(0, len(text)))
        if op == "field":
            fields = text.split(";")
            i = draw(st.integers(0, len(fields) - 1))
            j = draw(st.integers(0, len(fields) - 1))
            how = draw(st.sampled_from(["drop", "repeat", "swap"]))
            if how == "drop":
                del fields[i]
            elif how == "repeat":
                fields.insert(j, fields[i])
            else:
                fields[i], fields[j] = fields[j], fields[i]
            text = ";".join(fields)
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        else:
            skip = op == "replace"
            text = text[:at] + draw(st.sampled_from(CHARS)) + text[at + skip:]
    return text.encode()


@FUZZ
@given(mutated())
def test_mutated_key_refused_or_in_range(key):
    try:
        genera, legs, branch, edges = raw_from_key(key)
    except StructuralError:
        return
    k = len(genera)
    assert k >= 1 and len(branch) == k
    assert all(type(g) is int and g >= 0 for g in genera + branch)
    assert all(0 <= v < k for _, v in legs)
    assert all(0 <= u < k and 0 <= v < k for u, v in edges)
