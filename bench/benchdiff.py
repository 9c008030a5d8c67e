#!/usr/bin/env python3
"""Field-level diff of two BENCH files (.json, or .jsonl with one JSON value
per line).

Prints every leaf whose value changed, as `path: before -> after`.  Leaves
that differ only in their array indices and changed from the same value to
the same value share one line, with the indices grouped: `points[0,3,6]`,
`[4-935]`.  A leaf present on one side only prints as `(absent)` on the
other.  The last line counts the changed leaves.  Exit status: 0 when the
files hold the same values, 1 when they differ, 2 on a usage or parse error.

Usage: bench/benchdiff.py <before> <after>
"""
import json
import sys

ABSENT = object()


def load(path):
    with open(path) as f:
        text = f.read()
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def leaves(value, path=()):
    """Yield (path, leaf) pairs; path elements are keys or int indices."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    else:
        yield path, value


def ranges(indices):
    """[0, 1, 2, 5] -> '0-2,5'."""
    out = []
    start = prev = indices[0]
    for i in indices[1:] + [None]:
        if i is not None and i == prev + 1:
            prev = i
            continue
        out.append(str(start) if start == prev else f"{start}-{prev}")
        if i is not None:
            start = prev = i
    return ",".join(out)


def render(pattern, index_sets):
    """Path with each index slot replaced by its grouped index set."""
    text = ""
    slot = 0
    for part in pattern:
        if part is None:
            text += f"[{ranges(sorted(index_sets[slot]))}]"
            slot += 1
        else:
            text += ("." if text else "") + part
    return text


def show(value):
    return "(absent)" if value is ABSENT else json.dumps(value)


def diff(before, after):
    """Changed leaves grouped by (index-free path, before, after)."""
    old = dict(leaves(before))
    new = dict(leaves(after))
    groups = {}
    count = 0
    for path in list(old) + [p for p in new if p not in old]:
        a = old.get(path, ABSENT)
        b = new.get(path, ABSENT)
        if a == b and type(a) is type(b):
            continue
        count += 1
        pattern = tuple(None if isinstance(p, int) else p for p in path)
        indices = tuple(p for p in path if isinstance(p, int))
        key = (pattern, show(a), show(b))
        groups.setdefault(key, []).append(indices)
    lines = []
    for (pattern, a, b), members in groups.items():
        # Group the index tuples slot by slot only when that is exact: every
        # combination of the grouped slots must be a member.
        slots = [set(ix[k] for ix in members) for k in range(len(members[0]))]
        product = 1
        for s in slots:
            product *= len(s)
        if product == len(members):
            lines.append(f"{render(pattern, slots)}: {a} -> {b}")
        else:
            for ix in members:
                lines.append(
                    f"{render(pattern, [{k} for k in ix])}: {a} -> {b}")
    return lines, count


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        before, after = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as err:
        print(f"benchdiff: {err}", file=sys.stderr)
        return 2
    lines, count = diff(before, after)
    for line in lines:
        print(line)
    print(f"{count} changed leaves")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
