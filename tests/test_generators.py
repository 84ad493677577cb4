import hashlib
from itertools import islice

import pytest

import strongmatch.generators
from strongmatch import (
    GraphError,
    SplitMix64,
    connected_components,
    count_invariants,
    gen_c5_blowup,
    gen_extremal_cubic,
    gen_k33plus,
    gen_odd_regular_extremal,
    gen_random_bounded_degree,
    gen_random_cubic,
    gen_random_forest,
    gen_random_girth6,
    gen_random_subcubic,
    girth,
)

from bruteforce import (
    girth6_generator_by_bfs,
    is_k33plus_by_isomorphism,
    splitmix64_reference,
)


def below_reference(stream, bound: int) -> int:
    """A uniform draw from [0, bound): the first output of ``stream`` at or
    above 2^64 mod bound, reduced mod bound."""
    threshold = (1 << 64) % bound
    return next(r for r in stream if r >= threshold) % bound


def shuffle_reference(stream, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = below_reference(stream, i + 1)
        items[i], items[j] = items[j], items[i]


# 20,000 outputs cross every change of block size (64, 128, ..., 4096 lanes)
STREAM_LENGTH = 20_000


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # published outputs of the reference C implementation
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_reference_vectors_nonzero_seed(self):
        rng = SplitMix64(0x123456789ABCDEF)
        assert rng.next_u64() == 0x157A3807A48FAA9D
        assert rng.next_u64() == 0xD573529B34A1D093

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_below_range_and_determinism(self):
        rng = SplitMix64(7)
        draws = [rng.below(5) for _ in range(8)]
        assert draws == [2, 4, 1, 3, 4, 0, 3, 2]
        assert all(0 <= d < 5 for d in draws)

    def test_below_rejects_nonpositive(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError):
            rng.below(0)
        with pytest.raises(ValueError):
            rng.below(-2)

    def test_shuffle(self):
        rng = SplitMix64(7)
        items = list(range(8))
        rng.shuffle(items)
        assert items == [1, 4, 5, 2, 6, 0, 3, 7]
        assert sorted(items) == list(range(8))

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**63 - 1, 2**64 - 1, 2**64 + 5],
        ids=["0", "1", "2^63-1", "2^64-1", "2^64+5"],
    )
    def test_stream_matches_reference(self, seed):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(STREAM_LENGTH)]
        assert got == list(islice(splitmix64_reference(seed), STREAM_LENGTH))

    @pytest.mark.parametrize(
        "bound", [1, 2, 3, 100, 2**63 + 1, 3 * 2**62],
        ids=["1", "2", "3", "100", "2^63+1", "3*2^62"],
    )
    def test_below_and_draws_match_reference(self, bound):
        count = STREAM_LENGTH // 2
        ref = splitmix64_reference(bound)
        want = [below_reference(ref, bound) for _ in range(count)]
        rng = SplitMix64(bound)
        assert [rng.below(bound) for _ in range(count)] == want
        assert list(islice(SplitMix64(bound).draws(bound), count)) == want
        assert all(0 <= x < bound for x in want)

    @pytest.mark.parametrize("bound", [2**63 + 1, 3 * 2**62])
    def test_large_bounds_reject_draws(self, bound):
        # the rejection path runs: 2^64 mod bound is a quarter to a half of 2^64
        threshold = (1 << 64) % bound
        outputs = list(islice(splitmix64_reference(bound), 1000))
        rejected = sum(r < threshold for r in outputs)
        assert 200 < rejected < 600

    def test_interleaved_calls_share_one_stream(self):
        rng = SplitMix64(2024)
        ref = splitmix64_reference(2024)
        small, large = rng.draws(7), rng.draws(2**63 + 1)
        for i in range(STREAM_LENGTH // 4):
            assert rng.next_u64() == next(ref)
            assert rng.below(10 + i) == below_reference(ref, 10 + i)
            assert next(small) == below_reference(ref, 7)
            assert next(large) == below_reference(ref, 2**63 + 1)

    @pytest.mark.parametrize("length", [0, 1, 2, 1000])
    def test_shuffle_matches_reference(self, length):
        items, want = list(range(length)), list(range(length))
        rng = SplitMix64(length)
        rng.shuffle(items)
        ref = splitmix64_reference(length)
        shuffle_reference(ref, want)
        assert items == want
        # the instance and the reference go on from the same point
        assert rng.next_u64() == next(ref)

    def test_draws_rejects_nonpositive(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError):
            rng.draws(0)
        with pytest.raises(ValueError):
            rng.draws(-2)

    def test_lane_cache_holds_only_the_block_sizes(self):
        for seed in range(12):
            for n in (2, 9, 150, 600):
                gen_random_subcubic(n, 3 * n // 2, seed)
                gen_random_forest(n, seed)
            gen_random_girth6(150, 3, seed)
            gen_random_cubic(150, seed)
        sizes = sorted(strongmatch.generators._LANE_CONSTANTS)
        assert sizes == [64 << k for k in range(7)]


class TestK33Plus:
    def test_structure(self):
        g = gen_k33plus()
        assert (g.n, g.m) == (7, 10)
        assert sorted(g.degrees()) == [2, 3, 3, 3, 3, 3, 3]
        assert girth(g) == 4
        assert count_invariants(g).n33plus == 1
        assert is_k33plus_by_isomorphism(g, list(range(7)))


class TestExtremalCubic:
    def test_structure(self):
        g = gen_extremal_cubic()
        assert (g.n, g.m) == (30, 45)
        assert g.is_cubic()
        assert girth(g) == 4
        assert len(connected_components(g)) == 1

    def test_hub_attachment(self):
        g = gen_extremal_cubic()
        assert g.adj[28] == (6, 13, 29)
        assert g.adj[29] == (20, 27, 28)

    def test_blocks_are_k33plus(self):
        g = gen_extremal_cubic()
        for k in range(4):
            block = list(range(7 * k, 7 * k + 7))
            assert is_k33plus_by_isomorphism(g, block)

    def test_invariants(self):
        rep = count_invariants(gen_extremal_cubic())
        assert rep.thm1_bound == 5
        assert rep.thm2_bound == 5
        assert rep.n33plus == 0  # the blocks are subgraphs, not components


class TestC5Blowup:
    def test_delta_four(self):
        g = gen_c5_blowup(4)
        assert g.n == 10
        assert g.degrees() == [4] * 10
        # classes are independent and non-consecutive classes unjoined,
        # so the shortest cycles alternate between two adjacent classes
        assert girth(g) == 4

    def test_delta_six(self):
        g = gen_c5_blowup(6)
        assert g.n == 15
        assert g.degrees() == [6] * 15

    def test_classes_are_independent(self):
        g = gen_c5_blowup(6)
        for c in range(5):
            members = range(3 * c, 3 * c + 3)
            for u in members:
                for v in members:
                    if u < v:
                        assert not g.has_edge(u, v)

    @pytest.mark.parametrize("delta", [2, 3, 5, 0])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(GraphError):
            gen_c5_blowup(delta)


class TestOddRegularExtremal:
    def test_delta_three_matches_cubic_extremal(self):
        g, comments = gen_odd_regular_extremal(3)
        ref = gen_extremal_cubic()
        assert (g.n, g.m) == (ref.n, ref.m)
        assert g.is_cubic()
        assert sorted(g.degrees()) == sorted(ref.degrees())
        assert comments[0].startswith("odd-regular extremal")
        assert len(comments) == 5

    def test_delta_three_blocks(self):
        g, _ = gen_odd_regular_extremal(3)
        for k in range(4):
            block = list(range(7 * k, 7 * k + 7))
            assert is_k33plus_by_isomorphism(g, block)

    def test_delta_five(self):
        g, _ = gen_odd_regular_extremal(5)
        assert g.n == 50
        assert g.degrees() == [5] * 50
        assert len(connected_components(g)) == 1

    def test_hub_comments_match_edges(self):
        g, comments = gen_odd_regular_extremal(5)
        for line in comments[1:]:
            # "hub H -> block K vertices a,b,..."
            parts = line.split()
            hub = int(parts[1])
            targets = [int(t) for t in parts[-1].split(",")]
            for t in targets:
                assert g.has_edge(hub, t)

    @pytest.mark.parametrize("delta", [2, 4, 1, 0])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(GraphError):
            gen_odd_regular_extremal(delta)


class TestRandomBoundedDegree:
    def test_frozen_instance(self):
        g = gen_random_subcubic(10, 12, 42)
        assert g.edges == (
            (0, 2), (0, 6), (1, 2), (1, 3), (1, 9), (4, 5),
            (4, 8), (4, 9), (5, 8), (5, 9), (6, 7), (7, 8),
        )

    def test_degree_cap_and_target(self):
        for seed in range(30):
            g = gen_random_bounded_degree(25, 40, 4, seed)
            assert g.m <= 40
            assert g.max_degree() <= 4

    def test_subcubic_cap(self):
        for seed in range(30):
            g = gen_random_subcubic(30, 45, seed)
            assert g.max_degree() <= 3

    def test_determinism(self):
        a = gen_random_bounded_degree(40, 60, 5, 99)
        b = gen_random_bounded_degree(40, 60, 5, 99)
        assert a == b

    def test_trivial_sizes(self):
        assert gen_random_bounded_degree(0, 5, 3, 1).n == 0
        assert gen_random_bounded_degree(1, 5, 3, 1).m == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            gen_random_bounded_degree(-1, 5, 3, 1)
        with pytest.raises(GraphError):
            gen_random_bounded_degree(5, 5, 0, 1)


class TestRandomCubic:
    def test_frozen_instance(self):
        g = gen_random_cubic(8, 5)
        assert g.edges == (
            (0, 2), (0, 3), (0, 5), (1, 5), (1, 6), (1, 7),
            (2, 3), (2, 4), (3, 7), (4, 6), (4, 7), (5, 6),
        )

    def test_cubic_for_many_seeds(self):
        for seed in range(25):
            g = gen_random_cubic(20, seed)
            assert g.is_cubic()
            assert g.m == 30

    def test_determinism(self):
        assert gen_random_cubic(40, 17) == gen_random_cubic(40, 17)

    @pytest.mark.parametrize("n", [3, 5, 2, 0])
    def test_rejects_bad_order(self, n):
        with pytest.raises(GraphError):
            gen_random_cubic(n, 1)


class TestRandomGirth6:
    def test_frozen_invariants(self):
        g = gen_random_girth6(20, 3, 11)
        assert g.m == 28
        assert girth(g) == 6

    def test_girth_and_cap_for_many_seeds(self):
        for seed in range(25):
            g = gen_random_girth6(40, 4, seed)
            assert g.max_degree() <= 4
            gi = girth(g)
            assert gi is None or gi >= 6

    def test_determinism(self):
        assert gen_random_girth6(50, 3, 8) == gen_random_girth6(50, 3, 8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            gen_random_girth6(-1, 3, 1)

    # spreads of acceptance criterion 06's schedule (n 6..100, cap 2..5) and
    # of the benchmark's small girth-6 stream (n 4..60), cap 1, n 0 and 1
    REFERENCE_ARGS = (
        [(6 + (11 * i) % 95, 2 + i % 4, 930_000 + i) for i in range(0, 1000, 13)]
        + [(4 + (7 * k) % 57, 2 + k % 4, 8_000_002 + 5 * k) for k in range(0, 300, 7)]
        + [(n, 1, seed) for n in (2, 3, 17, 60) for seed in (1, 2)]
        + [(n, cap, 5) for n in (0, 1) for cap in (1, 3)]
    )

    def test_matches_bfs_reference(self):
        for args in self.REFERENCE_ARGS:
            assert gen_random_girth6(*args) == girth6_generator_by_bfs(*args), args


class TestRandomForest:
    def test_frozen_instance(self):
        g = gen_random_forest(9, 3)
        assert g.edges == (
            (0, 1), (1, 2), (1, 3), (1, 7), (2, 4), (2, 5), (2, 8), (3, 6),
        )

    def test_acyclic_for_many_seeds(self):
        for seed in range(30):
            g = gen_random_forest(35, seed)
            assert g.m == g.n - len(connected_components(g))
            assert girth(g) is None

    def test_attach_percent_extremes(self):
        assert gen_random_forest(20, 1, attach_percent=0).m == 0
        full = gen_random_forest(20, 1, attach_percent=100)
        assert full.m == 19
        assert len(connected_components(full)) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            gen_random_forest(-1, 0)
        with pytest.raises(GraphError):
            gen_random_forest(5, 0, attach_percent=101)


def edges_sha256(g) -> str:
    return hashlib.sha256(repr(g.edges).encode()).hexdigest()


EMPTY = "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"


class TestGoldens:
    """Edge lists of every random generator, pinned by sha256 across
    revisions: one mid size each, plus the edge cases of the arguments."""

    @pytest.mark.parametrize(
        "gen,args,m,digest",
        [
            (gen_random_subcubic, (20000, 30000, 31337), 29702,
             "b491f34e62c3dc0915b19bafd06477aead28d3510690e6b0c1d482cbee0cd412"),
            (gen_random_bounded_degree, (5000, 12000, 5, 4242), 12000,
             "b7609758ece4b7315c60bfa6c04dfa17703108722c489dbbb16332ca24c6c19e"),
            # needs 4 pairing attempts
            (gen_random_cubic, (2000, 2027), 3000,
             "3b26bc9691cbd99602113a76c544c88f4e031dca57207ce82cd8a6d554df621e"),
            (gen_random_girth6, (2000, 3, 606), 2963,
             "0e31df841c6692bab17756b1ed2524a97a12e73673b560d23da282f7da1d540b"),
            (gen_random_girth6, (2000, 5, 2021), 4975,
             "02d980d6140281f2e01977752121943f01d83c2ab04093d6a6d0bbe407dc1506"),
            (gen_random_forest, (5000, 77), 3709,
             "2175385b10573cc1e399759f79f40955679a73151282b4647179e6c7ffec3e7a"),
            (gen_random_bounded_degree, (0, 5, 3, 1), 0, EMPTY),
            (gen_random_bounded_degree, (1, 5, 3, 1), 0, EMPTY),
            (gen_random_subcubic, (2, 1, 3), 1,
             "9a96df51dc791004ba79c210a5443532cf486a99b718d3ddb603ca75a2eaa0cf"),
            (gen_random_girth6, (0, 3, 1), 0, EMPTY),
            (gen_random_girth6, (1, 3, 1), 0, EMPTY),
            (gen_random_forest, (0, 1), 0, EMPTY),
            (gen_random_forest, (1, 1), 0, EMPTY),
            (gen_random_bounded_degree, (10, -5, 3, 1), 0, EMPTY),
            (gen_random_bounded_degree, (10, -1, 3, 1), 0, EMPTY),
            (gen_random_bounded_degree, (10, 0, 3, 1), 0, EMPTY),
            (gen_random_bounded_degree, (300, 200, 1, 11), 143,
             "aeb362f82a2cb3bbeba9b6fa988e88367eb1cb7c98cba296c6263ddf91515c83"),
            (gen_random_girth6, (300, 1, 11), 142,
             "ded3e9550f2cbbe3490eedb9781a9270e84145817accfd296b9ad2615e2e052a"),
            (gen_random_forest, (300, 5, 0), 0, EMPTY),
            (gen_random_forest, (300, 5, 100), 299,
             "39f02f35d9d2cd89662d3239349ebbe2233f6395bdc369bfa0ccf313861b2992"),
        ],
        ids=[
            "subcubic-20k", "bounded-delta5", "cubic-2k", "girth6-delta3", "girth6-delta5",
            "forest-5k", "bounded-n0", "bounded-n1", "subcubic-n2", "girth6-n0",
            "girth6-n1", "forest-n0", "forest-n1", "bounded-target-minus5",
            "bounded-target-minus1", "bounded-target-0", "bounded-max-degree-1",
            "girth6-max-degree-1", "forest-attach-0", "forest-attach-100",
        ],
    )
    def test_edges_sha256(self, gen, args, m, digest):
        g = gen(*args)
        assert g.n == args[0]
        assert g.m == m
        assert edges_sha256(g) == digest
