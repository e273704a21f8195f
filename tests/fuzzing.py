"""Byte-level mutations for the container and annotation fuzz tests."""

from hypothesis import strategies as st


def mutate(data, blob: bytes) -> bytes:
    """`blob` truncated, with a few bytes XOR-flipped, or with bytes
    spliced in, as drawn from the hypothesis `data` strategy."""
    blob = bytearray(blob)
    kind = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif kind == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        at = data.draw(st.integers(0, len(blob)))
        blob[at:at] = data.draw(st.binary(min_size=1, max_size=16))
    return bytes(blob)
