"""Fixture: loop-invariant-container violations — containers rebuilt per test."""


def kw_filter(colors, participants):
    # the shape that made Kuhn–Wattenhofer reduction O(n·|P|)
    return {
        v: c
        for v, c in colors.items()
        if participants is None or v in set(participants)
    }


def spread(n, hubs):
    others = []
    for v in range(n):
        if v not in list(hubs):
            others.append(v)
    return others


def drain(queue, done):
    while queue and queue[-1] in sorted(done):
        queue.pop()
    return queue


def evaluated_once(items, banned):
    # a for statement's iterable, a comprehension's first iterable and a
    # test outside any loop each build their container once
    for x in items if 0 not in set(banned) else sorted(items):
        print(x)
    firsts = [x for x in (items if 0 in set(banned) else banned)]
    banned_set = set(banned)
    kept = [x for x in items if x not in banned_set]
    return firsts, kept, 3 in tuple(items)
