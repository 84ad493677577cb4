"""Print one sha256 over the reduction traces of a fixed graph corpus, one
over the general greedy's matchings of the same corpus, and one over the
girth-6 greedy's matchings of girth-6 graphs.

It shows that a change to the reduction engine or to the greedies leaves
every trace and every greedy matching byte-identical:

    PYTHONPATH=src python3 tests/trace_digest.py

It compares the three lines it prints with tests/trace_digest.txt and
exits 1, naming each line that differs, or 0 when all three agree.  A
change meant to alter traces or matchings rewrites that file and gives its
reason in CHANGES.md.

The first line gives the number of graphs and the sha256 of their
concatenated format_trace texts, in corpus order.  The second gives the
sha256 of greedy_induced_matching's matchings, one line of ``u-v`` pairs
per graph in corpus order; the two 100k graphs run its list path and the
rest its mask path.  The third gives the sha256 of
girth6_induced_matching's matchings, in the same form, on the corpus's
girth-6 graphs followed by 300 random girth-6 graphs of maximum degree 2-5
on 20-2,000 vertices.  The corpus, about 25 s of work on a 2-core Xeon
(the third line adds about 9 s):

- 3,000 random subcubic graphs on 20-300 vertices, m = n, 4n/3 or 3n/2;
- 1,000 random cubic graphs on 14-212 vertices;
- 300 random girth-6 graphs of maximum degree 3;
- 300 random subcubic graphs with 1-4 K33+ blocks attached at their
  subdivision vertices;
- 200 disjoint unions of cubic components and K33+ pieces in shuffled
  order: the dodecahedron, the Petersen graph, the extremal cubic graph,
  a ring of diamonds, two random cubic graphs, K33+, and two K33+ joined
  at their subdivision vertices;
- gen_random_subcubic(100000, 150000, 7100000) and
  gen_random_cubic(100000, 7100000), the generator graphs of the large
  benchmark workloads.

It uses the standard library, the package and the graph builders of
tests/util.py.  Pytest does not collect this file, as its name does not
start with ``test_``.
"""

import hashlib
import sys
from itertools import zip_longest
from pathlib import Path

from strongmatch import (
    Graph,
    SplitMix64,
    find_induced_matching_subcubic,
    format_trace,
    gen_extremal_cubic,
    gen_k33plus,
    gen_random_cubic,
    gen_random_girth6,
    gen_random_subcubic,
    girth6_induced_matching,
    greedy_induced_matching,
)

from util import (
    disjoint_union,
    make_diamond_chain,
    make_dodecahedron,
    make_petersen,
    with_k33plus_blocks,
)


def cubic_union(seed: int) -> Graph:
    k33 = gen_k33plus()
    pieces = [
        make_dodecahedron(),
        make_petersen(),
        gen_extremal_cubic(),
        make_diamond_chain(3 + seed % 3, ring=True),
        gen_random_cubic(14 + 2 * (seed % 14), 2_000_000 + seed),
        gen_random_cubic(14 + 2 * ((seed * 5) % 14), 2_100_000 + seed),
        k33,
        Graph(14, [*disjoint_union(k33, k33).edges, (6, 13)]),
    ]
    SplitMix64(seed).shuffle(pieces)
    return disjoint_union(*pieces)


def girth6_graphs():
    """The corpus's 300 girth-6 graphs, of maximum degree 3."""
    for i in range(300):
        yield gen_random_girth6(50 + i, 3, 1_400_000 + i)


def girth6_corpus():
    """girth6_graphs, then 300 of maximum degree 2-5 on 20-2,000 vertices."""
    yield from girth6_graphs()
    for i in range(300):
        yield gen_random_girth6(20 + (53 * i) % 1_981, 2 + i % 4, 1_600_000 + i)


def corpus():
    for i in range(3_000):
        n = 20 + (7 * i) % 281
        yield gen_random_subcubic(n, (n, 4 * n // 3, 3 * n // 2)[i % 3], 1_200_000 + i)
    for i in range(1_000):
        yield gen_random_cubic(14 + 2 * ((13 * i) % 100), 1_300_000 + i)
    yield from girth6_graphs()
    for i in range(300):
        n = 20 + i % 150
        base = gen_random_subcubic(n, n * (4 + i % 2) // (3 + i % 2), 1_500_000 + i)
        yield with_k33plus_blocks(base, 1 + i % 4, i)
    for i in range(200):
        yield cubic_union(i)
    yield gen_random_subcubic(100_000, 150_000, 7_100_000)
    yield gen_random_cubic(100_000, 7_100_000)


EXPECTED = Path(__file__).with_name("trace_digest.txt")


def matching_line(matching) -> bytes:
    return (" ".join(f"{u}-{v}" for u, v in matching) + "\n").encode()


def digest_lines():
    """Yield the three lines, each as soon as its corpus is done."""
    digest = hashlib.sha256()
    greedy_digest = hashlib.sha256()
    count = 0
    for g in corpus():
        _, trace = find_induced_matching_subcubic(g)
        digest.update(format_trace(trace).encode())
        greedy_digest.update(matching_line(greedy_induced_matching(g)))
        count += 1
    yield f"graphs={count} sha256={digest.hexdigest()}"
    yield f"greedy graphs={count} sha256={greedy_digest.hexdigest()}"
    girth6_digest = hashlib.sha256()
    girth6_count = 0
    for g in girth6_corpus():
        girth6_digest.update(matching_line(girth6_induced_matching(g)))
        girth6_count += 1
    yield f"girth6 graphs={girth6_count} sha256={girth6_digest.hexdigest()}"


def main() -> int:
    got = []
    for line in digest_lines():
        print(line, flush=True)
        got.append(line)
    want = EXPECTED.read_text().splitlines()
    status = 0
    for k, (line, expected) in enumerate(zip_longest(got, want), 1):
        if line != expected:
            print(
                f"line {k} differs from {EXPECTED.name}: expected {expected}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
