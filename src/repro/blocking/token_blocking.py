"""Token blocking: records sharing any (rare-enough) token are candidates."""

from __future__ import annotations

from ..similarity.tokenize import word_tokens

__all__ = ["token_blocking_pairs"]


def token_blocking_pairs(records_a, records_b, attribute,
                         max_token_frequency=50):
    """Candidate pairs sharing a token of ``attribute``.

    Tokens occurring in more than ``max_token_frequency`` records on
    either side are ignored (they behave like stop words and would
    re-create the cross product). Pairs come in the order the tokens
    first appear in ``records_a``, the same in every process.
    """
    # dict.fromkeys, not set: the pair order must not follow the
    # process's string hash seed.
    index_a = {}
    for record in records_a:
        for token in dict.fromkeys(word_tokens(record.get(attribute))):
            index_a.setdefault(token, []).append(record)
    index_b = {}
    for record in records_b:
        for token in dict.fromkeys(word_tokens(record.get(attribute))):
            index_b.setdefault(token, []).append(record)

    seen = set()
    for token, members_a in index_a.items():
        members_b = index_b.get(token)
        if not members_b:
            continue
        if (
            len(members_a) > max_token_frequency
            or len(members_b) > max_token_frequency
        ):
            continue
        for a in members_a:
            for b in members_b:
                pair_id = (id(a), id(b))
                if pair_id in seen:
                    continue
                seen.add(pair_id)
                yield a, b
