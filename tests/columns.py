"""Row views of the column-form pair messages, for tests.

The pipeline carries ``<leaf offset, e-record>`` pairs as parallel
columns; a test usually wants to write down, or compare, a handful of
pairs as rows.  A row here is ``(leaf offset, ciphertext, dummy)``.
"""

from repro.core.messages import PairBatch


def columns_of(rows) -> tuple[tuple[int, ...], tuple[bytes, ...], bytes]:
    """Rows as ``(leaves, ciphertexts, dummies)`` columns."""
    rows = list(rows)
    return (
        tuple(leaf for leaf, _, _ in rows),
        tuple(ciphertext for _, ciphertext, _ in rows),
        bytes(bool(dummy) for _, _, dummy in rows),
    )


def pair_batch(publication: int, rows, **stamps) -> PairBatch:
    """The :class:`PairBatch` carrying ``rows`` in order."""
    return PairBatch(publication, *columns_of(rows), **stamps)


def rows_of(leaves, ciphertexts, dummies) -> list[tuple[int, bytes, bool]]:
    """Three columns as rows (lengths must agree)."""
    assert len(leaves) == len(ciphertexts) == len(dummies)
    return [
        (leaf, ciphertext, bool(dummy))
        for leaf, ciphertext, dummy in zip(leaves, ciphertexts, dummies)
    ]


def cloud_rows(message) -> list[tuple[int, bytes]]:
    """``(leaf offset, ciphertext)`` rows of a ``ToCloudBatch`` or
    ``BufferFlush``."""
    assert len(message.leaves) == len(message.ciphertexts)
    return list(zip(message.leaves, message.ciphertexts))
