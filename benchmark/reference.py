"""Independent output references and parsers for the recalg verbs.

Nothing here calls or imports recalg: transitive closure is a closed
form on chains and a reachability sweep elsewhere, the WIN game is
solved by retrograde analysis, and the `run` / `alg` stdout formats are
parsed from text. A mismatch anywhere is a failed operation.
"""

import re

LOSE, WIN = 0, 1
DIGEST_MOD = 1_000_000_007
DIGEST_KEY = 1_000_003


# --- transitive closure -----------------------------------------------------

def chain_closure(ids):
    """Closed form: on a chain, i reaches exactly the nodes after it."""
    return {(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))}


def reach_masks(edges):
    """Per-node reachability bitmask (bit = node id) of an acyclic edge set,
    one sweep in reverse topological order."""
    succ, indeg = {}, {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
        indeg[b] = indeg.get(b, 0) + 1
        indeg.setdefault(a, 0)
    order = [v for v, d in indeg.items() if d == 0]
    for v in order:
        for s in succ[v]:
            indeg[s] -= 1
            if indeg[s] == 0:
                order.append(s)
    if len(order) != len(succ):
        raise ValueError("closure reference expects an acyclic graph")
    reach = {}
    for v in reversed(order):
        m = 0
        for s in succ[v]:
            m |= (1 << s) | reach[s]
        reach[v] = m
    return reach


def _bits(m):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def closure(edges):
    return {(a, b) for a, m in reach_masks(edges).items() for b in _bits(m)}


def digest(pairs):
    """Order-independent fingerprint of a set of int pairs, computed the
    same way by the in-process probe: (count, sum of squares mod p)."""
    n = s = 0
    for a, b in pairs:
        x = a * DIGEST_KEY + b
        s = (s + x * x % DIGEST_MOD) % DIGEST_MOD
        n += 1
    return n, s


def closure_digest(edges):
    return digest((a, b) for a, m in reach_masks(edges).items() for b in _bits(m))


# --- the WIN game -----------------------------------------------------------

def _retrograde(edges):
    """Status (WIN / LOSE) and retrograde level of every determined
    position; positions left out are draws."""
    preds, left = {}, {}
    for a, b in edges:
        preds.setdefault(b, []).append(a)
        left[a] = left.get(a, 0) + 1
        left.setdefault(b, 0)
    status = {v: LOSE for v, d in left.items() if d == 0}
    level = dict.fromkeys(status, 0)
    queue = list(status)
    for v in queue:
        for u in preds.get(v, ()):
            if u in status:
                continue
            if status[v] == LOSE:
                status[u] = WIN
            else:
                left[u] -= 1
                if left[u] > 0:
                    continue
                status[u] = LOSE
            level[u] = level[v] + 1
            queue.append(u)
    return status, level


def game_shape(edges):
    """(depth, won, drawn): the longest retrograde chain, i.e. how many
    alternating rounds it takes to settle every determined position; the
    positions with a move that win; and the positions whose status is a
    draw (undefined under valid / well-founded)."""
    status, level = _retrograde(edges)
    won = {v for v, s in status.items() if s == WIN}
    drawn = {a for a, _ in edges} - set(status)
    return max(level.values(), default=0), won, drawn


def retrograde(edges):
    """Solve win(X) :- move(X,Y), not win(Y) by retrograde analysis:
    (won, drawn) as in game_shape."""
    return game_shape(edges)[1:]


# --- `recalg run` -----------------------------------------------------------

FACT = re.compile(r"(undef: )?([a-z][A-Za-z0-9_]*)\(([^()]*)\)")
LEFTOVER = re.compile(r"[\s.]*")


def _value(tok):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        return tok


def parse_run(text):
    """Facts printed by `recalg run` (valid / wellfounded listing or the
    stratified database dump) as (true, undefined) sets of
    (pred, args) pairs. Raises ValueError on anything else."""
    true, undef = set(), set()
    if LEFTOVER.fullmatch(FACT.sub("", text)) is None:
        raise ValueError("unparsed text in run output")
    for m in FACT.finditer(text):
        fact = (m.group(2), tuple(_value(t) for t in m.group(3).split(",")))
        (undef if m.group(1) else true).add(fact)
    return true, undef


EDB_PREDICATES = ("e", "move")


def datalog_expect(relations, undef=None):
    """Expected `run` output: true facts per predicate, undefined facts,
    and the number of output tuples (derived true plus undefined)."""
    true = {(p, t) for p, ts in relations.items() for t in ts}
    und = {(p, t) for p, ts in (undef or {}).items() for t in ts}
    derived = sum(len(ts) for p, ts in relations.items() if p not in EDB_PREDICATES)
    return {"kind": "run", "true": true, "undef": und, "tuples": derived + len(und)}


def win_expect(edges):
    won, drawn = retrograde(edges)
    return datalog_expect({"move": set(edges), "win": {(v,) for v in won}},
                          {"win": {(v,) for v in drawn}})


# --- `recalg alg` -----------------------------------------------------------

LINE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*) = (.*)")
THREE = re.compile(r"\[certain (\{.*\}), possible (\{.*\})\]")
ELEM = re.compile(r"\s*(\[[^\[\]]*\]|[^,\[\]{}\s]+)\s*(,|$)")


def parse_set(text):
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("not a set: %r" % text[:40])
    body, out, pos = text[1:-1], set(), 0
    while pos < len(body):
        m = ELEM.match(body, pos)
        if m is None:
            raise ValueError("bad set element at %r" % body[pos:pos + 40])
        tok = m.group(1)
        out.add(tuple(_value(t) for t in tok[1:-1].split(",")) if tok[0] == "[" else _value(tok))
        pos = m.end()
    return out


def parse_alg(text):
    """`name = {...}` or `name = [certain {...}, possible {...}]` lines
    printed by `recalg alg`, as name -> (certain, possible)."""
    out = {}
    for line in text.splitlines():
        m = LINE.fullmatch(line)
        if m is None:
            raise ValueError("unparsed alg line %r" % line[:60])
        three = THREE.fullmatch(m.group(2))
        if three:
            out[m.group(1)] = (parse_set(three.group(1)), parse_set(three.group(2)))
        else:
            s = parse_set(m.group(2))
            out[m.group(1)] = (s, s)
    return out


def alg_expect(literals, recursive, query):
    """Expected `alg` output. [recursive] maps each defined constant to its
    exact set, or to (certain, undefined) for a three-valued one; the
    query repeats constant [query]."""
    consts = {k: (v, v) for k, v in literals.items()}
    tuples = 0
    for k, v in recursive.items():
        low, und = v if isinstance(v, tuple) else (v, set())
        consts[k] = (low, low | und)
        tuples += len(low) + len(und)
    consts["query"] = consts[query]
    return {"kind": "alg", "consts": consts, "tuples": tuples}


# --- checking ---------------------------------------------------------------

def check(expect, text):
    """Verify one verb's stdout against its expectation. Returns the
    number of verified output tuples; raises ValueError on a mismatch."""
    if expect["kind"] == "run":
        true, undef = parse_run(text)
        if true != expect["true"]:
            raise ValueError("true facts differ: %d missing, %d extra"
                             % (len(expect["true"] - true), len(true - expect["true"])))
        if undef != expect["undef"]:
            raise ValueError("undefined facts differ: %d missing, %d extra"
                             % (len(expect["undef"] - undef), len(undef - expect["undef"])))
    else:
        got = parse_alg(text)
        if got != expect["consts"]:
            bad = sorted(k for k in set(got) | set(expect["consts"])
                         if got.get(k) != expect["consts"].get(k))
            raise ValueError("alg constants differ: %s" % ", ".join(bad))
    return expect["tuples"]
