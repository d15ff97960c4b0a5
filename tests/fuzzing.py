"""Byte-level mutations shared by the container and weights-file fuzz tests."""

from hypothesis import strategies as st

# One to four flips, deletions or insertions, each at a place that wraps to the length.
EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "delete", "insert"]), st.integers(0, 2**16), st.integers(1, 255)),
    min_size=1,
    max_size=4,
)


def mutate(blob: bytes, edits) -> bytes:
    """Apply (op, place, value) edits in turn; a place wraps to the length."""
    data = bytearray(blob)
    for op, place, value in edits:
        if op == "insert":
            data.insert(place % (len(data) + 1), value)
        elif op == "delete":
            del data[place % len(data)]
        else:
            data[place % len(data)] ^= value
    return bytes(data)
