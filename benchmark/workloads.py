"""Seeded inputs and job lists for the four benchmark workloads.

Every input is a pure function of (seed, workload, instance): node ids
are a seeded permutation, so no engine change can key on literal ids.
Each job carries a thunk for its expected answer, computed by the
independent references in reference.py, never by recalg itself.

A generator returns the input files' contents and the jobs; run.py
writes the files with save(). Drawing the instances and computing the
answers is Python whose cost depends on the seed (the alg-rec WIN graphs
are drawn by rejection), so run.py does both outside its set-up
timer, which then holds writing the inputs and recalg's warm-up.
"""

import functools
import os
import random

import reference

TC_RULES = "t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n"
WIN_RULE = "win(X) :- move(X,Y), not win(Y).\n"
ALG_TC = ("let tc = edge + map[[pi1 . pi1, pi2 . pi2]]"
          "(sel[pi2 . pi1 = pi1 . pi2](edge x tc));\nquery tc;\n")

# Ladders: three doubling rungs each, top rungs sized so that one pass of
# a workload's job list fits about three times in one run.
TC_CHAIN = (96, 192, 384)
TC_GRID = 16
WIN_CHAIN = (1024, 2048, 4096)
WIN_RANDOM = (4000, 8000)
ALG_TC_CHAIN = (48, 96, 192)
ALG_WIN_NODES = (32, 64, 128)
ALG_WIN_GRAPHS = 4
# The alternating fixpoint takes one round per level of the game, and the
# game depth of a random graph ranges over 5x from seed to seed; the
# number of output positions (won plus drawn) varies by a third. Each
# alg-rec WIN graph is therefore drawn with the median depth of random
# graphs of its size and, within two, the median output (measured over
# 300 and 1000 seeds), so the cost curve follows size and not the luck of
# the draw. Size -> (depth, output positions).
ALG_WIN_SHAPE = {32: (5, 23), 64: (8, 38), 128: (11, 76)}
UPDATE_CHAINS = (32, 64, 128)
UPDATE_ROUNDS = 200


def rng(seed, *tags):
    return random.Random(":".join([str(seed)] + [str(t) for t in tags]))


def chain(seed, tag, n):
    """A chain of n edges over a seeded permutation of n+1 node ids."""
    ids = list(range(n + 1))
    rng(seed, tag).shuffle(ids)
    return ids, [(ids[i], ids[i + 1]) for i in range(n)]


def grid(seed, tag, k):
    """A k x k grid with right and down edges, ids permuted."""
    ids = list(range(k * k))
    rng(seed, tag).shuffle(ids)
    node = lambda i, j: ids[i * k + j]
    edges = [(node(i, j), node(i, j + 1)) for i in range(k) for j in range(k - 1)]
    edges += [(node(i, j), node(i + 1, j)) for i in range(k - 1) for j in range(k)]
    return edges


def random_graph(seed, tag, nodes, edges):
    """A seeded simple directed graph without self-loops."""
    r = rng(seed, tag)
    out = set()
    while len(out) < edges:
        a, b = r.randrange(nodes), r.randrange(nodes)
        if a != b:
            out.add((a, b))
    return sorted(out, key=lambda e: r.random())


def win_graph(seed, tag, n):
    """The first seeded random move graph on n nodes with 2n edges whose
    game has the shape ALG_WIN_SHAPE[n]."""
    depth, positions = ALG_WIN_SHAPE[n]
    attempt = 0
    while True:
        edges = random_graph(seed, "%s-%d" % (tag, attempt), n, 2 * n)
        d, won, drawn = reference.game_shape(edges)
        if d == depth and abs(len(won) + len(drawn) - positions) <= 2:
            return edges
        attempt += 1


def facts(pred, edges):
    return "".join("%s(%d,%d).\n" % (pred, a, b) for a, b in edges)


def alg_set(edges):
    return "{" + ",".join("[%d,%d]" % e for e in edges) + "}"


def add(inputs, workdir, name, text):
    """Record one input file's contents; returns its path."""
    path = os.path.join(workdir, name)
    inputs[path] = text
    return path


def save(inputs):
    for path, text in inputs.items():
        with open(path, "w") as f:
            f.write(text)


def job(jid, family, argv, expect):
    """One timed operation: a recalg verb (argv after the binary), the
    family whose scaling curve it joins (None: not on a ladder), and a
    thunk for the expected parse of its stdout."""
    return {"id": jid, "family": family, "argv": argv, "expect": functools.cache(expect)}


def resolve(jobs):
    """Force every job's expected answer."""
    for j in jobs:
        j["expect"] = j["expect"]()
    return jobs


def tc_chain(seed, workdir):
    inputs, jobs = {}, []
    instances = []
    for n in TC_CHAIN:
        ids, edges = chain(seed, "tc", n)
        instances.append(("chain-%d" % n, edges, lambda ids=ids: reference.chain_closure(ids),
                          True))
    edges = grid(seed, "grid", TC_GRID)
    instances.append(("grid-%d" % TC_GRID, edges, lambda e=edges: reference.closure(e), False))
    for name, edges, closure, on_ladder in instances:
        path = add(inputs, workdir, "tc-%s.dl" % name, facts("e", edges) + TC_RULES)
        # One thunk shared by the valid and the stratified job.
        expect = functools.cache(
            lambda e=edges, c=closure: reference.datalog_expect({"e": set(e), "t": c()}))
        for sem in ("valid", "stratified"):
            fam = "chain-%s" % sem if on_ladder else None
            jobs.append(job("%s/%s" % (name, sem), fam, ["run", path, "-s", sem], expect))
    return inputs, jobs


def win_chain(seed, workdir):
    inputs, jobs = {}, []
    for n in WIN_CHAIN:
        _, edges = chain(seed, "win", n)
        path = add(inputs, workdir, "win-chain-%d.dl" % n, facts("move", edges) + WIN_RULE)
        jobs.append(job("chain-%d/valid" % n, "chain-valid", ["run", path, "-s", "valid"],
                        lambda e=edges: reference.win_expect(e)))
    nodes, m = WIN_RANDOM
    edges = random_graph(seed, "win-random", nodes, m)
    path = add(inputs, workdir, "win-random.dl", facts("move", edges) + WIN_RULE)
    jobs.append(job("random-%d/wellfounded" % nodes, None,
                    ["run", path, "-s", "wellfounded"], lambda: reference.win_expect(edges)))
    return inputs, jobs


def alg_rec(seed, workdir):
    inputs, jobs = {}, []
    for n in ALG_TC_CHAIN:
        ids, edges = chain(seed, "alg-tc", n)
        path = add(inputs, workdir, "alg-tc-%d.alg" % n,
                     "let edge = %s;\n%s" % (alg_set(edges), ALG_TC))
        expect = lambda e=edges, ids=ids: reference.alg_expect(  # noqa: E731
            {"edge": set(e)}, {"tc": reference.chain_closure(ids)}, "tc")
        jobs.append(job("tc-chain-%d/alg" % n, "tc-alg",
                        ["alg", path, "--plan", "cost"], expect))
    for n in ALG_WIN_NODES:
        # One algebra= system per rung, one independent game per graph.
        graphs = [win_graph(seed, "alg-win-%d-%d" % (n, g), n) for g in range(ALG_WIN_GRAPHS)]
        path = add(inputs, workdir, "alg-win-%d.alg" % n, "".join(
            "let move%d = %s;\n" % (g, alg_set(edges))
            + "let win%d = pi1(move%d - (pi1(move%d) x win%d));\n" % ((g,) * 4)
            for g, edges in enumerate(graphs)) + "query win0;\n")
        expect = lambda graphs=graphs: reference.alg_expect(  # noqa: E731
            {"move%d" % g: set(edges) for g, edges in enumerate(graphs)},
            {"win%d" % g: reference.retrograde(edges) for g, edges in enumerate(graphs)},
            "win0")
        jobs.append(job("win-random-%dx%d/alg" % (ALG_WIN_GRAPHS, n), "win-alg",
                        ["alg", path, "--plan", "cost"], expect))
    return inputs, jobs


def update_stream(seed, n, batches):
    """The update-mix input for one rung: a DAG made of an n-chain plus
    n/4 seeded forward shortcuts, and a seeded stream of batches.

    Each block of 10 batches holds exactly 6 inserts and 4 deletes in
    seeded order; its 10th batch holds 16 tuples, the rest 1. The 16-tuple
    batch inserts in 3 blocks of every 7 and deletes in the other 4, which
    balances inserted against deleted tuples. A delete removes present
    edges, chosen uniformly. An insert mends a cut chain edge when there
    is one and otherwise adds an absent forward edge. The chain is thus
    cut and mended at a steady rate, and the graph keeps the same shape
    from the first batch to the last: every seed and every stretch of the
    stream sees the same mix of cheap and expensive updates.
    Returns (ids, initial edges, [(sign, [edges])])."""
    ids, chain_edges = chain(seed, "upd", n)
    r = rng(seed, "upd-stream", n)
    pos = {v: i for i, v in enumerate(ids)}
    present = set(chain_edges)
    while len(present) < n + n // 4:
        i, j = sorted(r.sample(range(n + 1), 2))
        if j > i + 1:
            present.add((ids[i], ids[j]))
    initial = sorted(present, key=lambda e: pos[e[0]] * (n + 1) + pos[e[1]])

    def absent_edge(batch):
        cut = [e for e in chain_edges if e not in present and e not in batch]
        if cut:
            return r.choice(cut)
        while True:
            i, j = sorted(r.sample(range(n + 1), 2))
            if (ids[i], ids[j]) not in present | batch:
                return ids[i], ids[j]

    stream = []
    for block in range(batches // 10):
        big = "+" if block % 7 in (0, 2, 4) else "-"
        kinds = ["+"] * 6 + ["-"] * 4
        kinds.remove(big)
        r.shuffle(kinds)
        for sign, size in zip(kinds + [big], [1] * 9 + [16]):
            if sign == "+":
                batch = set()
                while len(batch) < size:
                    batch.add(absent_edge(batch))
                present |= batch
            else:
                batch = set(r.sample(sorted(present), size))
                present -= batch
            stream.append((sign, sorted(batch)))
    return ids, initial, stream


def update_mix(seed, workdir):
    """Per-rung program and batch files for the in-process probe, and the
    rungs with what reference.py needs to replay them."""
    inputs, rungs = {}, []
    for n in UPDATE_CHAINS:
        ids, initial, stream = update_stream(seed, n, UPDATE_ROUNDS)
        add(inputs, workdir, "upd-%d.dl" % n, facts("e", initial) + TC_RULES)
        add(inputs, workdir, "upd-%d.batches" % n, "".join(
            "%s %s\n" % (sign, " ".join("%d %d" % e for e in batch))
            for sign, batch in stream))
        rungs.append({"n": n, "ids": ids, "initial": initial, "stream": stream})
    return inputs, rungs


BATCH = {"tc-chain": tc_chain, "win-chain": win_chain, "alg-rec": alg_rec}

