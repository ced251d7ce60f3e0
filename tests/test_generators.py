from fractions import Fraction

import pytest

from pointline import (
    GenerationFailed,
    GeneratorSpec,
    Point,
    compute_arrangement,
    dirac_degree,
    generate,
    search_min_dirac,
)
from pointline.generators import MAX_POINTS, RNG_ALGORITHM, SplitMix64


def test_splitmix64_reference_vectors():
    # published test vectors for the standard splitmix64 stream
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(0x123456789ABCDEF0)
    assert rng.next_u64() == 0x161922C645CE50E8


def test_splitmix64_below_is_unbiased_range():
    rng = SplitMix64(7)
    draws = [rng.below(10) for _ in range(1000)]
    assert set(draws) == set(range(10))
    with pytest.raises(ValueError):
        rng.below(0)


def test_grid_order():
    ps = generate(GeneratorSpec.grid(2, 3))
    assert [(p.x, p.y) for p in ps] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    with pytest.raises(ValueError):
        generate(GeneratorSpec.grid(0, 3))


def test_near_pencil():
    ps = generate(GeneratorSpec.near_pencil(5))
    assert [(p.x, p.y) for p in ps] == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
    assert dirac_degree(ps) == (4, 4)
    with pytest.raises(ValueError):
        generate(GeneratorSpec.near_pencil(2))


def test_collinear_and_parabola():
    ps = generate(GeneratorSpec.collinear(4))
    assert [(p.x, p.y) for p in ps] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    ps = generate(GeneratorSpec.parabola(6))
    assert [(p.x, p.y) for p in ps] == [(i, i * i) for i in range(6)]
    # no 3 points of a parabola are collinear
    st = compute_arrangement(ps)
    assert st.l_max == 2
    assert st.s == {2: 15}


def test_random_grid():
    spec = GeneratorSpec.random_grid(n=12, extent=9, seed=5)
    ps = generate(spec)
    assert ps.n == 12
    assert all(0 <= p.x <= 9 and 0 <= p.y <= 9 for p in ps)
    assert generate(spec) == ps  # same spec, same set
    other = generate(GeneratorSpec.random_grid(n=12, extent=9, seed=6))
    assert other != ps
    with pytest.raises(GenerationFailed):
        generate(GeneratorSpec.random_grid(n=10, extent=2, seed=1))
    with pytest.raises(ValueError):
        generate(GeneratorSpec.random_grid(n=0, extent=2, seed=1))


def test_generate_caps_the_point_count():
    assert MAX_POINTS == 10**6
    for spec in (GeneratorSpec.grid(100000, 100000), GeneratorSpec.grid(1000, 1001),
                 GeneratorSpec.collinear(MAX_POINTS + 1),
                 GeneratorSpec.random_grid(MAX_POINTS + 1, 10**4, 1)):
        with pytest.raises(GenerationFailed, match="cap"):
            generate(spec)


def test_search_tiny():
    res = search_min_dirac(n=3, extent=2, iterations=10, seed=1)
    assert res.degree == 2
    assert res.ratio == Fraction(4, 3)  # 2 / (3/2)
    assert res.rng_algorithm == RNG_ALGORITHM == "splitmix64"


def test_search_forced_full_grid():
    # 9 points on {0..2}^2 fill the grid, so the answer is the 3x3 value
    res = search_min_dirac(n=9, extent=2, iterations=1000, seed=1)
    assert res.degree == 6
    assert sorted((p.x, p.y) for p in res.best_set) == [
        (x, y) for x in range(3) for y in range(3)]


def test_search_golden_run():
    # regression anchor, pinned from the first run of this configuration
    res = search_min_dirac(n=12, extent=11, iterations=10**4, seed=42)
    assert res.degree == 8
    assert res.ratio == Fraction(4, 3)
    assert res.iterations_run == 10**4
    assert res.seed == 42


def test_search_result_invariants():
    for seed in (0, 3, 11):
        res = search_min_dirac(n=8, extent=7, iterations=400, seed=seed)
        st = compute_arrangement(res.best_set)
        assert st.l_max < 8  # never collinear
        assert res.degree >= 2
        w, d = dirac_degree(res.best_set)
        assert d == res.degree
        assert res.ratio == Fraction(2 * res.degree, 8)


def test_search_deterministic():
    a = search_min_dirac(n=7, extent=9, iterations=300, seed=123)
    b = search_min_dirac(n=7, extent=9, iterations=300, seed=123)
    assert a == b


def test_search_validation():
    with pytest.raises(ValueError):
        search_min_dirac(n=2, extent=5, iterations=10, seed=0)
    with pytest.raises(ValueError):
        search_min_dirac(n=5, extent=1, iterations=10, seed=0)
    with pytest.raises(ValueError):
        search_min_dirac(n=5, extent=5, iterations=0, seed=0)
    with pytest.raises(GenerationFailed):
        search_min_dirac(n=10, extent=2, iterations=10, seed=0)


def test_point_type_from_generators():
    ps = generate(GeneratorSpec.grid(2, 2))
    assert isinstance(ps[0], Point)
    assert isinstance(ps[0].x, Fraction)
