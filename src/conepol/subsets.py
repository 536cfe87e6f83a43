"""Subsets of {0, ..., n-1} encoded as int bitsets.

Bit i set means element i belongs to the subset.  All set algebra is plain
int arithmetic, which keeps every operation O(1) at desk scale.  Ground
sets are capped at 64 elements.
"""

from .errors import InvalidParams, MalformedInput

MAX_GROUND = 64


def from_elements(elements):
    s = 0
    for e in elements:
        e = int(e)
        if e < 0 or e >= MAX_GROUND:
            raise InvalidParams(f"element {e} outside 0..{MAX_GROUND - 1}")
        s |= 1 << e
    return s


def from_json_elements(obj, what):
    """Bitset of a JSON list of integer elements; `what` names it in errors."""
    if not isinstance(obj, list) or not all(is_json_int(e) for e in obj):
        raise MalformedInput(f"{what} must be a list of integers")
    return from_elements(obj)


def is_json_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def elements(s):
    """Set bits of s, ascending.  A mask wider than 64 bits (a set of poset
    elements, say) is read in one pass over its binary digits, lowest
    first; clearing one bit at a time would cost its full width per bit.
    A narrower one, such as a set of ground elements, is read by clearing
    bits: there the string walk's fixed cost loses, by about 2x on sets of
    a few elements, and the two break even near 64 to 128 bits."""
    out = []
    if s >> 64:
        digits = bin(s)[:1:-1]
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    while s:
        out.append((s & -s).bit_length() - 1)
        s &= s - 1
    return out


def is_subset(a, b):
    return a & ~b == 0


def is_proper_subset(a, b):
    return a != b and a & ~b == 0


def sort_key(s):
    """Canonical order: cardinality first, then lexicographic element lists."""
    return (s.bit_count(), tuple(elements(s)))


def submasks(mask):
    """All subsets of `mask`, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def strict_between(K, L):
    """All S with K < S < L (strict inclusions), in canonical order."""
    diff = L & ~K
    out = [K | t for t in submasks(diff) if t not in (0, diff)]
    out.sort(key=sort_key)
    return out


def format_elements(s):
    return ",".join(str(i) for i in elements(s))


def parse_elements(text):
    """Bitset of a comma-separated element list; "" or "empty" is 0."""
    text = text.strip()
    if text in ("", "empty"):
        return 0
    try:
        elements = [int(part) for part in text.split(",")]
    except ValueError:
        raise MalformedInput(f"malformed element list {text!r}") from None
    return from_elements(elements)
